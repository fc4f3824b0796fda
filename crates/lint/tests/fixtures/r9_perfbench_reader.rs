//! R9 fixture: a stand-in for the end-to-end benchmark's sources. It
//! reads one item; its own `pub` items are never checked.

pub fn drive() -> u32 {
    mc2ls_geo::read_by_perfbench()
}

pub fn never_called() -> u32 {
    0
}

//! Subcommand implementations.

use crate::args::{ArgError, Parsed, USAGE};
use mc2ls::prelude::*;
use mc2ls_viz::{render_scene, RenderOptions};
use std::error::Error;
use std::io::Write;

type CmdResult = Result<(), Box<dyn Error>>;

/// Routes a parsed command line to its implementation.
pub fn dispatch<W: Write>(parsed: &Parsed, out: &mut W) -> CmdResult {
    match parsed.command.as_str() {
        "generate" => generate(parsed, out),
        "stats" => stats(parsed, out),
        "solve" => solve_cmd(parsed, out),
        "analyze" => analyze(parsed, out),
        "convert" => convert(parsed, out),
        "candgen" => candgen_cmd(parsed, out),
        "snapshot" => snapshot_cmd(parsed, out),
        "serve" => serve_cmd(parsed, out),
        "query" => query_cmd(parsed, out),
        "update" => update_cmd(parsed, out),
        "help" => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        other => unreachable!("parser admitted unknown command {other}"),
    }
}

fn preset_config(parsed: &Parsed) -> Result<DatasetConfig, Box<dyn Error>> {
    let name = parsed.require("preset")?;
    let scale: f64 = parsed.get_or("scale", 1.0)?;
    let mut cfg = match name {
        "california" | "ca" => presets::california_scaled(scale),
        "new-york" | "new_york" | "ny" => presets::new_york_scaled(scale),
        other => return Err(Box::new(ArgError::BadValue("preset".into(), other.into()))),
    };
    cfg.seed = parsed.get_or("seed", cfg.seed)?;
    Ok(cfg)
}

/// Loads the dataset from `--data FILE` or generates it from `--preset`.
fn obtain_dataset(parsed: &Parsed) -> Result<Dataset, Box<dyn Error>> {
    if let Some(path) = parsed.get("data") {
        let file = std::fs::File::open(path)?;
        return Ok(mc2ls::data::serialize::load_json(file)?);
    }
    Ok(preset_config(parsed)?.generate())
}

fn generate<W: Write>(parsed: &Parsed, out: &mut W) -> CmdResult {
    let cfg = preset_config(parsed)?;
    let path = parsed.require("out")?;
    let dataset = cfg.generate();
    let file = std::fs::File::create(path)?;
    mc2ls::data::serialize::save_json(&dataset, std::io::BufWriter::new(file))?;
    let s = dataset.stats();
    writeln!(
        out,
        "wrote {} ({} users, {} positions) to {path}",
        dataset.name, s.n_users, s.n_positions
    )?;
    Ok(())
}

fn stats<W: Write>(parsed: &Parsed, out: &mut W) -> CmdResult {
    let dataset = obtain_dataset(parsed)?;
    let s = dataset.stats();
    writeln!(out, "dataset:           {}", dataset.name)?;
    writeln!(out, "users:             {}", s.n_users)?;
    writeln!(out, "positions:         {}", s.n_positions)?;
    writeln!(out, "mean r:            {:.2}", s.mean_positions)?;
    writeln!(out, "r_max:             {}", s.r_max)?;
    writeln!(out, "MBR area ratio:    {:.4}", s.mean_mbr_area_ratio)?;
    writeln!(out, "hotspot share:     {:.3}", s.hotspot_share)?;
    writeln!(out, "POIs:              {}", dataset.pois.len())?;
    Ok(())
}

fn parse_method(name: &str) -> Result<Method, ArgError> {
    Ok(match name {
        "baseline" => Method::Baseline,
        "kcifp" | "k-cifp" => Method::KCifp,
        "iqt" => Method::Iqt(IqtConfig::iqt(2.0)),
        "iqt-c" => Method::Iqt(IqtConfig::iqt_c(2.0)),
        "iqt-pino" => Method::Iqt(IqtConfig::iqt_pino(2.0)),
        other => return Err(ArgError::BadValue("method".into(), other.into())),
    })
}

/// Parses the `--selector` flag (shared by `solve`, `analyze` and
/// `query`), `auto` when absent.
fn parse_selector(parsed: &Parsed) -> Result<Selector, ArgError> {
    Ok(match parsed.get("selector").unwrap_or("auto") {
        "rescan" => Selector::Greedy,
        "celf" => Selector::LazyGreedy,
        "decremental" => Selector::Decremental,
        "auto" => Selector::Auto,
        other => return Err(ArgError::BadValue("selector".into(), other.into())),
    })
}

/// Parses a `--model` value (shared by `solve`, `snapshot save` and
/// `query`): the competition model `cinf` is computed under.
fn parse_model(name: &str) -> Result<Model, ArgError> {
    Model::parse(name).ok_or_else(|| ArgError::BadValue("model".into(), name.into()))
}

/// Parses a `--block-size` value (shared by `solve`, `analyze`, `snapshot
/// save` and `query`): `auto` (the default, also spelled `0`) derives the
/// size per dataset from the density probe, `plain` disables blocking and
/// runs the per-position kernel, a number fixes the size.
fn parse_block_size(value: Option<&str>) -> Result<usize, ArgError> {
    match value {
        None | Some("auto") => Ok(BLOCK_SIZE_AUTO),
        Some("plain") => Ok(BLOCK_SIZE_PLAIN),
        Some(v) => v
            .parse()
            .map_err(|_| ArgError::BadValue("block-size".into(), v.into())),
    }
}

/// Renders a stored `block_size` for humans, naming the sentinels.
fn show_block_size(block_size: usize) -> String {
    match block_size {
        BLOCK_SIZE_AUTO => "auto".to_string(),
        BLOCK_SIZE_PLAIN => "plain".to_string(),
        b => b.to_string(),
    }
}

/// Builds the MC²LS instance shared by `solve`, `analyze` and `snapshot
/// save`: dataset (file or preset), disjoint site sampling, and the
/// standard instance flags. Returns the dataset name alongside.
fn problem_from_flags(parsed: &Parsed) -> Result<(Problem<Sigmoid>, String), Box<dyn Error>> {
    let dataset = obtain_dataset(parsed)?;
    let n_c: usize = parsed.get_or("candidates", 100)?;
    let n_f: usize = parsed.get_or("facilities", 200)?;
    let k: usize = parsed.get_or("k", 10)?;
    let tau: f64 = parsed.get_or("tau", 0.7)?;
    let seed: u64 = parsed.get_or("site-seed", 42)?;
    let block_size = parse_block_size(parsed.get("block-size"))?;
    let model = parse_model(parsed.get("model").unwrap_or("cumulative"))?;
    let name = dataset.name.clone();
    let (sampled, facilities) = dataset.sample_sites_disjoint(n_c, n_f, seed);
    // `--candidates-file` swaps the sampled candidate sites for the ones a
    // `candgen` sweep proposed; facilities stay sampled from the dataset.
    let candidates = match parsed.get("candidates-file") {
        None => sampled,
        Some(path) => {
            let text = std::fs::read_to_string(path)?;
            let proposal: mc2ls_candgen::Proposal = serde_json::from_str(&text)?;
            if proposal.sites.is_empty() {
                return Err(Box::new(ArgError::BadValue(
                    "candidates-file".into(),
                    format!("{path} proposes no sites"),
                )));
            }
            proposal.sites.iter().map(|s| s.center).collect()
        }
    };
    let problem = Problem::new(
        dataset.users,
        facilities,
        candidates,
        k,
        tau,
        Sigmoid::paper_default(),
    )
    .with_block_size(block_size)
    .with_pf_exact(parsed.switch("pf-exact"))
    .with_model(model);
    Ok((problem, name))
}

fn solve_cmd<W: Write>(parsed: &Parsed, out: &mut W) -> CmdResult {
    let method = parse_method(parsed.get("method").unwrap_or("iqt"))?;
    let threads: usize = parsed.get_or("threads", 1)?;
    if threads == 0 {
        return Err(Box::new(ArgError::BadValue("threads".into(), "0".into())));
    }
    // All selectors return byte-identical solutions; `--selector` picks how
    // the greedy rounds are computed (`auto` chooses decremental vs CELF
    // from the instance shape).
    let selector = parse_selector(parsed)?;

    let (problem, _name) = problem_from_flags(parsed)?;
    // The influence phases fan out over `threads` workers; the result is
    // bit-identical to the serial run for any thread count.
    let report = solve_threaded(&problem, method, selector, threads);

    if let Some(path) = parsed.get("svg") {
        let svg = render_scene(&problem, Some(&report.solution), &RenderOptions::default());
        std::fs::write(path, svg)?;
        writeln!(out, "map written to {path}")?;
    }

    if parsed.switch("json") {
        writeln!(out, "{}", serde_json::to_string_pretty(&report)?)?;
        return Ok(());
    }

    writeln!(out, "method:   {}", method.name())?;
    writeln!(out, "model:    {}", problem.model)?;
    writeln!(out, "selected: {:?}", report.solution.selected)?;
    writeln!(out, "cinf(G):  {:.4}", report.solution.cinf)?;
    writeln!(
        out,
        "covered:  {} of {} users",
        report.selection.covered_users,
        problem.n_users()
    )?;
    writeln!(
        out,
        "pruned:   {:.1}% of pairs (IS {:.1}%, NIR {:.1}%, NIB {:.1}%, IA {:.1}%)",
        report.stats.pruned_fraction() * 100.0,
        report.stats.is_fraction() * 100.0,
        report.stats.nir_fraction() * 100.0,
        report.stats.nib_fraction() * 100.0,
        report.stats.ia_fraction() * 100.0,
    )?;
    writeln!(out, "time:     {:.1?}", report.times.total())?;
    Ok(())
}

fn analyze<W: Write>(parsed: &Parsed, out: &mut W) -> CmdResult {
    use mc2ls::core::analysis;
    let (problem, _name) = problem_from_flags(parsed)?;
    let k = problem.k;
    let selector = parse_selector(parsed)?;
    let (sets, _, _) =
        mc2ls::core::algorithms::influence_sets(&problem, Method::Iqt(IqtConfig::default()));
    let (solution, _) = mc2ls::core::algorithms::run_selector(selector, &sets, k, 1);

    let demand = analysis::demand_summary(&sets);
    writeln!(out, "demand landscape")?;
    writeln!(out, "  addressable users:   {}", demand.addressable_users)?;
    writeln!(
        out,
        "  addressable weight:  {:.2}",
        demand.total_addressable_weight
    )?;
    writeln!(out, "  contested users:     {}", demand.contested_users)?;
    writeln!(out, "  mean competitors:    {:.2}", demand.mean_competitors)?;

    writeln!(out, "\ncoverage curve (cinf by budget k)")?;
    for (i, v) in analysis::coverage_curve(&sets, k).iter().enumerate() {
        writeln!(out, "  k={:<3} {:.3}", i + 1, v)?;
    }

    writeln!(out, "\nselected sites")?;
    writeln!(
        out,
        "  {:>5}  {:>9}  {:>6}  {:>10}",
        "site", "exclusive", "shared", "at-risk-w"
    )?;
    for r in analysis::site_reports(&sets, &solution) {
        writeln!(
            out,
            "  {:>5}  {:>9}  {:>6}  {:>10.3}",
            r.candidate, r.exclusive_users, r.shared_users, r.exclusive_weight
        )?;
    }
    Ok(())
}

fn convert<W: Write>(parsed: &Parsed, out: &mut W) -> CmdResult {
    let input = parsed.require("checkins")?;
    let output = parsed.require("out")?;
    let min_positions: usize = parsed.get_or("min-positions", 2)?;
    let bounds = match parsed.get("bounds") {
        None => None,
        Some("ny") => Some(loader::GeoBounds::new_york()),
        Some("ca") => Some(loader::GeoBounds::california()),
        Some(other) => return Err(Box::new(ArgError::BadValue("bounds".into(), other.into()))),
    };
    let dataset = loader::load_checkin_file(input, "converted", bounds, min_positions)?;
    let file = std::fs::File::create(output)?;
    mc2ls::data::serialize::save_json(&dataset, std::io::BufWriter::new(file))?;
    writeln!(
        out,
        "converted {} users / {} positions to {output}",
        dataset.users.len(),
        dataset.stats().n_positions
    )?;
    Ok(())
}

/// Runs the MaxRS-style candidate sweep over a dataset's user positions
/// and writes the proposal as JSON — the file `--candidates-file` consumes.
fn candgen_cmd<W: Write>(parsed: &Parsed, out: &mut W) -> CmdResult {
    let path = parsed.require("out")?;
    let window: f64 = parsed.get_or("window", f64::NAN)?;
    if !(window > 0.0 && window.is_finite()) {
        return Err(Box::new(ArgError::BadValue(
            "window".into(),
            parsed.get("window").unwrap_or("(missing)").into(),
        )));
    }
    let m: usize = parsed.get_or("m", 100)?;
    if m == 0 {
        return Err(Box::new(ArgError::BadValue("m".into(), "0".into())));
    }
    let threads: usize = parsed.get_or("threads", 1)?;
    if threads == 0 {
        return Err(Box::new(ArgError::BadValue("threads".into(), "0".into())));
    }
    let mut cfg = mc2ls_candgen::SweepConfig::new(window, m).with_threads(threads);
    if let Some(sep) = parsed.get("min-separation") {
        let sep: f64 = sep
            .parse()
            .map_err(|_| ArgError::BadValue("min-separation".into(), sep.into()))?;
        if !(sep >= 0.0 && sep.is_finite()) {
            return Err(Box::new(ArgError::BadValue(
                "min-separation".into(),
                sep.to_string(),
            )));
        }
        cfg = cfg.with_min_separation(sep);
    }

    let dataset = obtain_dataset(parsed)?;
    let points: Vec<Point> = dataset
        .users
        .iter()
        .flat_map(|u| u.positions().iter().copied())
        .collect();
    let proposal = mc2ls_candgen::propose(&points, &cfg);
    std::fs::write(path, serde_json::to_string_pretty(&proposal)?)?;

    if parsed.switch("json") {
        writeln!(out, "{}", serde_json::to_string_pretty(&proposal)?)?;
        return Ok(());
    }
    writeln!(
        out,
        "swept {} positions at depth {} (cell {:.4}, {}x{} cell window)",
        proposal.stats.n_positions,
        proposal.stats.depth,
        proposal.stats.cell,
        proposal.stats.window_cells,
        proposal.stats.window_cells
    )?;
    writeln!(
        out,
        "scored {} anchors over {} non-empty cells",
        proposal.stats.anchors, proposal.stats.nonempty_cells
    )?;
    for (i, site) in proposal.sites.iter().enumerate() {
        writeln!(
            out,
            "  #{:<3} ({:>9.3}, {:>9.3})  score {}",
            i + 1,
            site.center.x,
            site.center.y,
            site.score
        )?;
    }
    writeln!(out, "proposed {} sites to {path}", proposal.sites.len())?;
    Ok(())
}

fn snapshot_cmd<W: Write>(parsed: &Parsed, out: &mut W) -> CmdResult {
    match parsed.action.as_deref() {
        Some("save") => snapshot_save(parsed, out),
        Some("load") => snapshot_load(parsed, out),
        Some("diff") => snapshot_diff(parsed, out),
        other => unreachable!("parser admitted snapshot action {other:?}"),
    }
}

fn snapshot_save<W: Write>(parsed: &Parsed, out: &mut W) -> CmdResult {
    let path = parsed.require("out")?;
    let threads: usize = parsed.get_or("threads", 1)?;
    if threads == 0 {
        return Err(Box::new(ArgError::BadValue("threads".into(), "0".into())));
    }
    let leaf_diagonal: f64 = parsed.get_or("leaf-diagonal", 2.0)?;
    let shards: usize = parsed.get_or("shards", 1)?;
    if shards == 0 {
        return Err(Box::new(ArgError::BadValue("shards".into(), "0".into())));
    }
    let (problem, name) = problem_from_flags(parsed)?;
    let (snapshot, stats) =
        mc2ls_serve::Snapshot::build_sharded(&name, &problem, leaf_diagonal, threads, shards);
    let bytes = snapshot.to_bytes();
    std::fs::write(path, &bytes)?;
    let meta = &snapshot.meta;
    writeln!(
        out,
        "snapshot {}: {} users, {} candidates, {} facilities, {} shards, tau {}, model {}",
        meta.name,
        meta.n_users,
        meta.n_candidates,
        meta.n_facilities,
        snapshot.n_shards(),
        meta.tau,
        meta.model
    )?;
    writeln!(
        out,
        "influences: {} entries ({:.1}% of pairs pruned)",
        snapshot.total_influences(),
        stats.pruned_fraction() * 100.0
    )?;
    writeln!(out, "wrote {} bytes to {path}", bytes.len())?;
    Ok(())
}

fn snapshot_load<W: Write>(parsed: &Parsed, out: &mut W) -> CmdResult {
    let path = parsed.require("file")?;
    let snapshot = mc2ls_serve::Snapshot::load(std::path::Path::new(path))?;
    let meta = &snapshot.meta;
    writeln!(out, "snapshot:    {}", meta.name)?;
    writeln!(out, "users:       {}", meta.n_users)?;
    writeln!(out, "candidates:  {}", meta.n_candidates)?;
    writeln!(out, "facilities:  {}", meta.n_facilities)?;
    writeln!(out, "tau:         {}", meta.tau)?;
    writeln!(out, "model:       {}", meta.model)?;
    writeln!(out, "block size:  {}", show_block_size(meta.block_size))?;
    writeln!(out, "default k:   {}", meta.default_k)?;
    writeln!(out, "shards:      {}", snapshot.n_shards())?;
    writeln!(out, "influences:  {}", snapshot.total_influences())?;
    writeln!(out, "iqt nodes:   {}", snapshot.tree.stats().nodes)?;
    writeln!(out, "verified OK (magic, version, section checksums)")?;
    Ok(())
}

fn snapshot_diff<W: Write>(parsed: &Parsed, out: &mut W) -> CmdResult {
    let base_path = parsed.require("base")?;
    let target_path = parsed.require("target")?;
    let out_path = parsed.require("out")?;
    let base = std::fs::read(base_path)?;
    let target = std::fs::read(target_path)?;
    // Validate both endpoints up front so a bad input is a decode error
    // here, not a confusing RELOAD failure later.
    mc2ls_serve::Snapshot::from_bytes(&base)?;
    mc2ls_serve::Snapshot::from_bytes(&target)?;
    let delta = mc2ls_serve::delta::diff(&base, &target)?;
    std::fs::write(out_path, &delta)?;
    writeln!(
        out,
        "delta {}: {} bytes ({} base, {} target)",
        out_path,
        delta.len(),
        base.len(),
        target.len()
    )?;
    Ok(())
}

fn serve_cmd<W: Write>(parsed: &Parsed, out: &mut W) -> CmdResult {
    let threads: usize = parsed.get_or("threads", 1)?;
    if threads == 0 {
        return Err(Box::new(ArgError::BadValue("threads".into(), "0".into())));
    }
    let config = mc2ls_serve::ServerConfig {
        addr: parsed.get("addr").unwrap_or("127.0.0.1:7171").to_string(),
        workers: parsed.get_or("workers", 4)?,
        max_pending: parsed.get_or("max-pending", 64)?,
        cache_capacity: parsed.get_or("cache", 256)?,
        coalesce_window: std::time::Duration::from_micros(parsed.get_or("coalesce-us", 0u64)?),
        threads,
        ..mc2ls_serve::ServerConfig::default()
    };

    if parsed.switch("live") {
        // Live mode: build the instance in-process (the influence phase
        // runs once, shared between the update engine and the initial
        // snapshot) and accept UPDATE batches with no reload ever.
        let leaf_diagonal: f64 = parsed.get_or("leaf-diagonal", 2.0)?;
        let shards: usize = parsed.get_or("shards", 1)?;
        if shards == 0 {
            return Err(Box::new(ArgError::BadValue("shards".into(), "0".into())));
        }
        let (problem, name) = problem_from_flags(parsed)?;
        let (live, snapshot, _prune) =
            mc2ls_serve::LiveUpdater::new(&name, &problem, leaf_diagonal, threads, shards);
        let engine = mc2ls_serve::QueryEngine::new(snapshot, threads);
        let server = mc2ls_serve::Server::start_live(config, engine, live)?;
        writeln!(
            out,
            "serving live instance {} on {} ({} users, {} shards)",
            name,
            server.addr(),
            problem.n_users(),
            shards
        )?;
        if let Some(port_file) = parsed.get("port-file") {
            std::fs::write(port_file, server.addr().to_string())?;
        }
        out.flush()?;
        server.join();
        writeln!(out, "server stopped")?;
        return Ok(());
    }

    let path = parsed.require("snapshot")?;
    let snapshot = mc2ls_serve::Snapshot::load(std::path::Path::new(path))?;
    // `--shards` is a guard, not a transform: serving always uses the
    // snapshot's own layout, so a mismatch means the operator saved the
    // wrong file for this fleet and deserves a hard error.
    if let Some(want) = parsed.get("shards") {
        let want: usize = want
            .parse()
            .map_err(|_| ArgError::BadValue("shards".into(), want.into()))?;
        if want != snapshot.n_shards() {
            return Err(Box::new(ArgError::BadValue(
                "shards".into(),
                format!("{want} (snapshot has {})", snapshot.n_shards()),
            )));
        }
    }
    let name = snapshot.meta.name.clone();
    let engine = mc2ls_serve::QueryEngine::new(snapshot, threads);
    let server = mc2ls_serve::Server::start(config, engine)?;
    writeln!(out, "serving snapshot {} on {}", name, server.addr())?;
    // Scripts (and the CI smoke job) poll this file to learn the bound
    // port when `--addr` ends in `:0`.
    if let Some(port_file) = parsed.get("port-file") {
        std::fs::write(port_file, server.addr().to_string())?;
    }
    out.flush()?;
    server.join();
    writeln!(out, "server stopped")?;
    Ok(())
}

fn query_cmd<W: Write>(parsed: &Parsed, out: &mut W) -> CmdResult {
    let addr = parsed.require("addr")?;
    let mut client = mc2ls_serve::Client::connect(addr)?;

    if parsed.switch("shutdown") {
        writeln!(out, "{}", client.shutdown()?)?;
        return Ok(());
    }
    if let Some(path) = parsed.get("reload") {
        writeln!(out, "{}", client.reload(path)?)?;
        return Ok(());
    }
    if parsed.switch("stats") {
        let report = client.stats()?;
        if parsed.switch("json") {
            writeln!(out, "{}", serde_json::to_string_pretty(&report)?)?;
            return Ok(());
        }
        writeln!(out, "snapshot:     {}", report.meta.name)?;
        writeln!(
            out,
            "instance:     {} users, {} candidates, tau {}",
            report.meta.n_users, report.meta.n_candidates, report.meta.tau
        )?;
        writeln!(out, "requests:     {}", report.requests)?;
        writeln!(out, "queries:      {}", report.queries)?;
        writeln!(
            out,
            "cache:        {} hits / {} misses ({} of {} entries)",
            report.cache_hits, report.cache_misses, report.cache_len, report.cache_capacity
        )?;
        writeln!(out, "rejected:     {}", report.rejected)?;
        writeln!(out, "errors:       {}", report.errors)?;
        writeln!(
            out,
            "reloads:      {} ({} via delta)",
            report.reloads, report.delta_reloads
        )?;
        writeln!(
            out,
            "updates:      {} applied ({} flips, {} compactions)",
            report.updates_applied, report.flipped_candidates, report.compactions
        )?;
        writeln!(out, "coalesced:    {}", report.coalesced)?;
        writeln!(out, "shards:       {}", report.shards)?;
        writeln!(out, "queue depth:  {}", report.queue_depth)?;
        writeln!(
            out,
            "latency:      p50 {}us, p99 {}us",
            report.p50_us, report.p99_us
        )?;
        return Ok(());
    }

    if parsed.switch("propose") {
        let window: f64 = parsed
            .require("window")?
            .parse()
            .map_err(|_| ArgError::BadValue("window".into(), "non-numeric".into()))?;
        let min_separation = match parsed.get("min-separation") {
            None => None,
            Some(v) => Some(
                v.parse::<f64>()
                    .map_err(|_| ArgError::BadValue("min-separation".into(), v.into()))?,
            ),
        };
        let proposal = client.propose(&mc2ls_serve::ProposeRequest {
            window,
            m: parsed.get_or("m", 10)?,
            min_separation,
        })?;
        if parsed.switch("json") {
            writeln!(out, "{}", serde_json::to_string_pretty(&proposal)?)?;
            return Ok(());
        }
        for (i, site) in proposal.sites.iter().enumerate() {
            writeln!(
                out,
                "  #{:<3} ({:>9.3}, {:>9.3})  score {}",
                i + 1,
                site.center.x,
                site.center.y,
                site.score
            )?;
        }
        writeln!(
            out,
            "proposed {} sites from {} positions",
            proposal.sites.len(),
            proposal.stats.n_positions
        )?;
        return Ok(());
    }

    // Pull the snapshot's parameters so a plain `query --addr …` just
    // works; explicit flags override (and are validated server-side).
    let meta = client.stats()?.meta;
    let candidates = match parsed.get("candidates") {
        None => None,
        Some(list) => {
            let ids: Result<Vec<u32>, _> = list
                .split(',')
                .filter(|s| !s.is_empty())
                .map(str::parse)
                .collect();
            Some(ids.map_err(|_| ArgError::BadValue("candidates".into(), list.into()))?)
        }
    };
    let request = mc2ls_serve::QueryRequest {
        candidates,
        k: parsed.get_or("k", meta.default_k)?,
        tau: parsed.get_or("tau", meta.tau)?,
        block_size: match parsed.get("block-size") {
            None => meta.block_size,
            flag => parse_block_size(flag)?,
        },
        pf_exact: parsed.switch("pf-exact"),
        selector: parse_selector(parsed)?,
        // Default to the model the snapshot was built to serve, so a plain
        // `query --addr …` works against any deployment; an explicit flag
        // is validated server-side against the snapshot META.
        model: match parsed.get("model") {
            Some(name) => parse_model(name)?,
            None => meta.model,
        },
    };
    let answer = client.query(&request)?;
    if parsed.switch("json") {
        writeln!(out, "{}", serde_json::to_string_pretty(&answer)?)?;
        return Ok(());
    }
    writeln!(out, "selected: {:?}", answer.solution.selected)?;
    writeln!(out, "cinf(G):  {:.4}", answer.solution.cinf)?;
    writeln!(
        out,
        "covered:  {} of {} users",
        answer.selection.covered_users, meta.n_users
    )?;
    writeln!(
        out,
        "cached:   {} (key {:016x})",
        answer.cached, answer.key_hash
    )?;
    Ok(())
}

/// Replays a timestamped SNAP check-in stream against a live server as
/// UPDATE batches: the first appearance of an external user id becomes an
/// `insert`, every later record a `checkin` appended to that trajectory.
fn update_cmd<W: Write>(parsed: &Parsed, out: &mut W) -> CmdResult {
    let addr = parsed.require("addr")?;
    let input = parsed.require("checkins")?;
    let batch_size: usize = parsed.get_or("batch", 100)?;
    if batch_size == 0 {
        return Err(Box::new(ArgError::BadValue("batch".into(), "0".into())));
    }
    let limit: usize = parsed.get_or("limit", usize::MAX)?;
    let anchor_lat: f64 = parsed.get_or("anchor-lat", 40.7)?;
    let anchor_lon: f64 = parsed.get_or("anchor-lon", -74.0)?;
    let bounds = match parsed.get("bounds") {
        None => None,
        Some("ny") => Some(loader::GeoBounds::new_york()),
        Some("ca") => Some(loader::GeoBounds::california()),
        Some(other) => return Err(Box::new(ArgError::BadValue("bounds".into(), other.into()))),
    };

    // `events` sorts by timestamp, so the replay is the real arrival order.
    let file = std::fs::File::open(input)?;
    let mut events = loader::events(file, bounds)?;
    events.truncate(limit);
    let projection = mc2ls::geo::project::Equirectangular::new(anchor_lat, anchor_lon);

    let mut client = mc2ls_serve::Client::connect(addr)?;
    // External SNAP ids map onto the engine's dense slot space: ids beyond
    // the served instance get fresh slots, numbered from the current count.
    // Replay never deletes, so compaction keeps the numbering stable.
    let mut ext_map: std::collections::BTreeMap<u64, u32> = std::collections::BTreeMap::new();
    let mut next_slot = client.stats()?.meta.n_users as u32;

    let (mut applied, mut flipped, mut compactions, mut batches) = (0u64, 0u64, 0u64, 0u64);
    let mut inserted = 0usize;
    for chunk in events.chunks(batch_size) {
        let mut wire = Vec::with_capacity(chunk.len());
        for ev in chunk {
            let p = projection.project(ev.lat, ev.lon);
            match ext_map.get(&ev.user) {
                Some(&slot) => wire.push(mc2ls_serve::WireEvent {
                    op: "checkin".to_string(),
                    user: slot,
                    xs: vec![p.x],
                    ys: vec![p.y],
                }),
                None => {
                    ext_map.insert(ev.user, next_slot);
                    next_slot += 1;
                    inserted += 1;
                    wire.push(mc2ls_serve::WireEvent {
                        op: "insert".to_string(),
                        user: 0,
                        xs: vec![p.x],
                        ys: vec![p.y],
                    });
                }
            }
        }
        let report = client.update(&wire)?;
        applied += report.applied;
        flipped += report.flipped;
        compactions += report.compactions;
        batches += 1;
        next_slot = report.next_user_id;
    }

    writeln!(
        out,
        "replayed {} events in {} batches ({} new users)",
        applied, batches, inserted
    )?;
    writeln!(
        out,
        "flipped:      {} candidate memberships re-verified",
        flipped
    )?;
    writeln!(out, "compactions:  {}", compactions)?;
    let meta = client.stats()?.meta;
    writeln!(out, "server now:   {} users live", meta.n_users)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::run;

    fn call(line: &str) -> (i32, String) {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        let mut out = Vec::new();
        let code = run(&args, &mut out);
        (code, String::from_utf8(out).unwrap())
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("mc2ls-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_prints_usage() {
        let (code, out) = call("help");
        assert_eq!(code, 0);
        assert!(out.contains("usage: mc2ls"));
    }

    #[test]
    fn unknown_command_fails_with_usage() {
        let (code, out) = call("bogus");
        assert_eq!(code, 2);
        assert!(out.contains("unknown command"));
        assert!(out.contains("usage"));
    }

    #[test]
    fn generate_stats_solve_pipeline() {
        let data = tmp("pipeline.json");
        let (code, out) = call(&format!(
            "generate --preset new-york --scale 0.05 --out {data}"
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("users"));

        let (code, out) = call(&format!("stats --data {data}"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("hotspot share"));

        let svg = tmp("pipeline.svg");
        let (code, out) = call(&format!(
            "solve --data {data} --candidates 20 --facilities 30 -k 3 --tau 0.6 --method iqt --svg {svg}"
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("cinf(G)"));
        assert!(std::fs::read_to_string(&svg).unwrap().starts_with("<svg"));
    }

    #[test]
    fn analyze_prints_reports() {
        let (code, out) =
            call("analyze --preset new-york --scale 0.05 --candidates 15 --facilities 20 -k 3");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("demand landscape"));
        assert!(out.contains("coverage curve"));
        assert!(out.contains("selected sites"));
        assert_eq!(out.matches("k=").count(), 3);
    }

    #[test]
    fn solve_json_output_is_machine_readable() {
        let (code, out) = call(
            "solve --preset new-york --scale 0.05 --candidates 10 --facilities 10 -k 2 --json",
        );
        assert_eq!(code, 0, "{out}");
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["solution"]["selected"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn solve_threads_flag_does_not_change_the_answer() {
        let base = "solve --preset new-york --scale 0.05 --candidates 15 --facilities 20 -k 3";
        let (code, serial) = call(base);
        assert_eq!(code, 0, "{serial}");
        let (code, threaded) = call(&format!("{base} --threads 4"));
        assert_eq!(code, 0, "{threaded}");
        let line = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("selected"))
                .unwrap()
                .to_owned()
        };
        assert_eq!(line(&serial), line(&threaded));
    }

    #[test]
    fn block_size_flag_does_not_change_the_answer() {
        // A fixed block size, the auto-tuned default and the plain kernel
        // (--block-size plain) make identical decisions, so the solution
        // must match exactly.
        let base = "solve --preset new-york --scale 0.05 --candidates 15 --facilities 20 -k 3";
        let line = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("selected"))
                .unwrap()
                .to_owned()
        };
        let (code, plain) = call(&format!("{base} --block-size plain"));
        assert_eq!(code, 0, "{plain}");
        for flag in ["--block-size 8", "--block-size auto", ""] {
            let (code, got) = call(&format!("{base} {flag}"));
            assert_eq!(code, 0, "{got}");
            assert_eq!(line(&got), line(&plain), "{flag}");
        }
        let (code, out) = call(&format!("{base} --block-size eleven"));
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("bad value"), "{out}");
    }

    #[test]
    fn pf_exact_flag_does_not_change_the_answer() {
        // --pf-exact forces the exact exp path; the fast path's error-band
        // fallback guarantees the same decisions, hence the same solution.
        let base = "solve --preset new-york --scale 0.05 --candidates 15 --facilities 20 -k 3";
        let (code, fast) = call(base);
        assert_eq!(code, 0, "{fast}");
        let (code, exact) = call(&format!("{base} --pf-exact"));
        assert_eq!(code, 0, "{exact}");
        let pick = |s: &str, prefix: &str| {
            s.lines()
                .find(|l| l.starts_with(prefix))
                .unwrap()
                .to_owned()
        };
        for prefix in ["selected", "cinf", "covered"] {
            assert_eq!(pick(&fast, prefix), pick(&exact, prefix));
        }
    }

    #[test]
    fn selector_flag_variants_agree() {
        // rescan, celf, decremental, auto and the flag's default must
        // print the exact same selected set, cinf and covered-user count.
        let base = "solve --preset new-york --scale 0.05 --candidates 15 --facilities 20 -k 3";
        let pick = |s: &str, prefix: &str| {
            s.lines()
                .find(|l| l.starts_with(prefix))
                .unwrap()
                .to_owned()
        };
        let (code, reference) = call(&format!("{base} --selector rescan"));
        assert_eq!(code, 0, "{reference}");
        assert!(pick(&reference, "covered:").contains("users"));
        for flag in [
            "--selector celf",
            "--selector decremental",
            "--selector auto",
            "",
        ] {
            let (code, got) = call(&format!("{base} {flag}"));
            assert_eq!(code, 0, "{got}");
            for prefix in ["selected", "cinf", "covered"] {
                assert_eq!(pick(&reference, prefix), pick(&got, prefix), "{flag:?}");
            }
        }
    }

    #[test]
    fn lazy_greedy_flag_does_not_change_the_answer() {
        // `analyze` switches between lazy (CELF) and re-evaluating greedy
        // through `--selector`, like `solve`; every choice, and the default,
        // must print the same report.
        let base = "analyze --preset new-york --scale 0.05 --candidates 15 --facilities 20 -k 3";
        let (code, eager) = call(&format!("{base} --selector rescan"));
        assert_eq!(code, 0, "{eager}");
        assert!(eager.contains("selected sites"), "{eager}");
        for flag in ["--selector celf", "--selector decremental", ""] {
            let (code, got) = call(&format!("{base} {flag}"));
            assert_eq!(code, 0, "{got}");
            assert_eq!(got, eager, "{flag:?}");
        }
        let (code, out) = call(&format!("{base} --selector quantum"));
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("bad value"), "{out}");
    }

    #[test]
    fn selector_stats_appear_in_json_output() {
        let (code, out) = call(
            "solve --preset new-york --scale 0.05 --candidates 10 --facilities 10 -k 2 \
             --selector decremental --json",
        );
        assert_eq!(code, 0, "{out}");
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(v["selection"]["covered_users"].as_u64().unwrap() > 0);
        assert!(v["selection"]["inverted_entries"].as_u64().unwrap() > 0);
        assert_eq!(v["selection"]["users_rescanned"].as_u64().unwrap(), 0);
    }

    #[test]
    fn solve_rejects_bad_selector() {
        let (code, out) = call("solve --preset new-york --scale 0.05 --selector quantum");
        assert_eq!(code, 1);
        assert!(out.contains("bad value"));
    }

    #[test]
    fn solve_rejects_zero_threads() {
        let (code, out) = call("solve --preset new-york --scale 0.05 --threads 0");
        assert_eq!(code, 1);
        assert!(out.contains("bad value"));
    }

    #[test]
    fn solve_rejects_bad_method() {
        let (code, out) = call("solve --preset new-york --scale 0.05 --method quantum");
        assert_eq!(code, 1);
        assert!(out.contains("bad value"));
    }

    #[test]
    fn explicit_cumulative_model_matches_the_default() {
        // `--model cumulative` is the default spelled out: identical lines.
        let base = "solve --preset new-york --scale 0.05 --candidates 15 --facilities 20 -k 3";
        let pick = |s: &str, prefix: &str| {
            s.lines()
                .find(|l| l.starts_with(prefix))
                .unwrap()
                .to_owned()
        };
        let (code, default) = call(base);
        assert_eq!(code, 0, "{default}");
        assert!(default.contains("model:    cumulative"), "{default}");
        let (code, explicit) = call(&format!("{base} --model cumulative"));
        assert_eq!(code, 0, "{explicit}");
        for prefix in ["selected", "cinf", "covered"] {
            assert_eq!(pick(&default, prefix), pick(&explicit, prefix));
        }
    }

    #[test]
    fn logit_model_solves_and_reports_itself() {
        let (code, out) = call(
            "solve --preset new-york --scale 0.05 --candidates 12 --facilities 15 -k 3 \
             --model logit",
        );
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("model:    logit"), "{out}");
        assert!(out.contains("cinf(G)"), "{out}");
    }

    #[test]
    fn solve_rejects_bad_model() {
        let (code, out) = call("solve --preset new-york --scale 0.05 --model quantum");
        assert_eq!(code, 1);
        assert!(out.contains("bad value"));
    }

    #[test]
    fn candgen_emits_a_file_the_solve_pipeline_consumes() {
        let sites = tmp("candgen-sites.json");
        let (code, out) = call(&format!(
            "candgen --preset new-york --scale 0.05 --window 2.0 -m 12 --out {sites}"
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("proposed"), "{out}");
        let proposal: mc2ls_candgen::Proposal =
            serde_json::from_str(&std::fs::read_to_string(&sites).unwrap()).unwrap();
        assert!(!proposal.sites.is_empty());
        assert!(proposal.sites.len() <= 12);

        // The emitted file slots straight into solve as the candidate set.
        let (code, solved) = call(&format!(
            "solve --preset new-york --scale 0.05 --facilities 20 -k 3 \
             --candidates-file {sites}"
        ));
        assert_eq!(code, 0, "{solved}");
        assert!(solved.contains("cinf(G)"), "{solved}");
    }

    #[test]
    fn candgen_is_thread_count_invariant_and_rejects_bad_flags() {
        let a = tmp("candgen-serial.json");
        let b = tmp("candgen-threaded.json");
        let base = "candgen --preset new-york --scale 0.05 --window 1.5 -m 6";
        let (code, out) = call(&format!("{base} --out {a}"));
        assert_eq!(code, 0, "{out}");
        let (code, out) = call(&format!("{base} --threads 4 --out {b}"));
        assert_eq!(code, 0, "{out}");
        assert_eq!(
            std::fs::read_to_string(&a).unwrap(),
            std::fs::read_to_string(&b).unwrap(),
            "sweep output must be byte-identical at any thread count"
        );

        for bad in [
            "candgen --preset new-york --scale 0.05 --out /tmp/x.json",
            "candgen --preset new-york --scale 0.05 --window 0 --out /tmp/x.json",
            "candgen --preset new-york --scale 0.05 --window 2 -m 0 --out /tmp/x.json",
            "candgen --preset new-york --scale 0.05 --window 2 --min-separation -1 --out /tmp/x.json",
        ] {
            let (code, out) = call(bad);
            assert_eq!(code, 1, "{bad} => {out}");
            assert!(out.contains("bad value"), "{bad} => {out}");
        }
    }

    #[test]
    fn convert_roundtrip() {
        // Export a synthetic dataset as check-ins, then convert it back.
        let d = mc2ls::prelude::presets::new_york_scaled(0.02).generate();
        let tsv = tmp("checkins.tsv");
        let mut buf = Vec::new();
        mc2ls::data::serialize::export_checkins(&d, (40.7, -74.0), &mut buf).unwrap();
        std::fs::write(&tsv, buf).unwrap();

        let out_json = tmp("converted.json");
        let (code, out) = call(&format!("convert --checkins {tsv} --out {out_json}"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("converted"));
        let back =
            mc2ls::data::serialize::load_json(std::fs::File::open(&out_json).unwrap()).unwrap();
        assert_eq!(back.users.len(), d.users.len());
    }

    #[test]
    fn missing_required_flag_reports_cleanly() {
        let (code, out) = call("generate --preset california");
        assert_eq!(code, 1);
        assert!(out.contains("--out") || out.contains("required"));
    }

    #[test]
    fn snapshot_rejects_bad_actions() {
        let (code, out) = call("snapshot");
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("<action>"));
        let (code, out) = call("snapshot frobnicate --out x.mc2s");
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("bad value"));
    }

    #[test]
    fn snapshot_save_load_pipeline() {
        let file = tmp("pipeline.mc2s");
        let (code, out) = call(&format!(
            "snapshot save --preset new-york --scale 0.05 --candidates 15 \
             --facilities 20 -k 3 --tau 0.6 --out {file}"
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("wrote"), "{out}");

        let (code, out) = call(&format!("snapshot load --file {file}"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("candidates:  15"), "{out}");
        assert!(out.contains("verified OK"), "{out}");

        // Corrupt one payload byte: load must fail cleanly, not panic.
        let mut bytes = std::fs::read(&file).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let bad = tmp("pipeline-bad.mc2s");
        std::fs::write(&bad, bytes).unwrap();
        let (code, out) = call(&format!("snapshot load --file {bad}"));
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("error:"), "{out}");
    }

    #[test]
    fn sharded_save_and_diff_pipeline() {
        let instance = "--preset new-york --scale 0.05 --candidates 15 --facilities 20 -k 3";
        let base = tmp("diff-base.mc2s");
        let (code, out) = call(&format!(
            "snapshot save {instance} --tau 0.6 --shards 3 --out {base}"
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("3 shards"), "{out}");

        let (code, out) = call(&format!("snapshot load --file {base}"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("shards:      3"), "{out}");

        // A target differing only in tau: the delta must be far smaller
        // than the full container (META + ISET groups change; PBLK/IQTR
        // do not).
        let target = tmp("diff-target.mc2s");
        let (code, out) = call(&format!(
            "snapshot save {instance} --tau 0.7 --shards 3 --out {target}"
        ));
        assert_eq!(code, 0, "{out}");

        let delta = tmp("diff-out.mc2d");
        let (code, out) = call(&format!(
            "snapshot diff --base {base} --target {target} --out {delta}"
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("delta "), "{out}");
        let delta_bytes = std::fs::read(&delta).unwrap();
        let target_bytes = std::fs::read(&target).unwrap();
        assert!(delta_bytes.len() < target_bytes.len(), "delta not smaller");
        let patched =
            mc2ls_serve::delta::apply(&std::fs::read(&base).unwrap(), &delta_bytes).unwrap();
        assert_eq!(patched, target_bytes, "apply(base, diff) != target");

        // The serve-side guard: demanding a different shard layout fails.
        let (code, out) = call(&format!("serve --snapshot {base} --shards 2"));
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("snapshot has 3"), "{out}");
    }

    #[test]
    fn serve_query_stats_shutdown_pipeline() {
        // End-to-end through the real binary surface: save a snapshot,
        // serve it on an ephemeral port, and drive it with `query`.
        let instance = "--preset new-york --scale 0.05 --candidates 15 --facilities 20 -k 3";
        let file = tmp("serve-e2e.mc2s");
        let (code, out) = call(&format!("snapshot save {instance} --out {file}"));
        assert_eq!(code, 0, "{out}");

        let port_file = tmp("serve-e2e.port");
        let _ = std::fs::remove_file(&port_file);
        let serve_line =
            format!("serve --snapshot {file} --addr 127.0.0.1:0 --port-file {port_file}");
        let server = std::thread::spawn(move || call(&serve_line));

        let addr = {
            let mut waited = 0;
            loop {
                if let Ok(addr) = std::fs::read_to_string(&port_file) {
                    break addr;
                }
                assert!(waited < 30_000, "server never wrote its port file");
                std::thread::sleep(std::time::Duration::from_millis(20));
                waited += 20;
            }
        };

        // A served query answers bit-for-bit like the direct solve of the
        // same instance (the snapshot was built from identical flags).
        let (code, direct) = call(&format!("solve {instance} --selector auto"));
        assert_eq!(code, 0, "{direct}");
        let (code, served) = call(&format!("query --addr {addr}"));
        assert_eq!(code, 0, "{served}");
        let pick = |s: &str, prefix: &str| {
            s.lines()
                .find(|l| l.starts_with(prefix))
                .unwrap()
                .to_owned()
        };
        for prefix in ["selected", "cinf", "covered"] {
            assert_eq!(pick(&direct, prefix), pick(&served, prefix));
        }

        // Second identical query hits the cache; stats must show it.
        let (code, served2) = call(&format!("query --addr {addr}"));
        assert_eq!(code, 0, "{served2}");
        assert_eq!(pick(&direct, "selected"), pick(&served2, "selected"));
        assert!(served2.contains("cached:   true"), "{served2}");
        let (code, stats) = call(&format!("query --addr {addr} --stats"));
        assert_eq!(code, 0, "{stats}");
        assert!(stats.contains("queries:      2"), "{stats}");
        assert!(stats.contains("1 hits"), "{stats}");

        // PROPOSE answers straight from the served snapshot's positions.
        let (code, proposed) = call(&format!("query --addr {addr} --propose --window 2.0 -m 4"));
        assert_eq!(code, 0, "{proposed}");
        assert!(proposed.contains("proposed 4 sites"), "{proposed}");

        // An explicit matching model is accepted; a mismatch is a typed
        // remote rejection, never a wrong answer.
        let (code, matching) = call(&format!("query --addr {addr} --model cumulative"));
        assert_eq!(code, 0, "{matching}");
        assert_eq!(pick(&direct, "selected"), pick(&matching, "selected"));
        let (code, mismatched) = call(&format!("query --addr {addr} --model logit"));
        assert_eq!(code, 1, "{mismatched}");
        assert!(mismatched.contains("model"), "{mismatched}");

        let (code, bye) = call(&format!("query --addr {addr} --shutdown"));
        assert_eq!(code, 0, "{bye}");
        assert!(bye.contains("shutting down"), "{bye}");
        let (code, out) = server.join().unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("server stopped"), "{out}");
    }

    #[test]
    fn live_serve_absorbs_a_replayed_checkin_stream() {
        // Start a live-mode server (no snapshot file anywhere), replay an
        // exported SNAP check-in stream at it through `update`, and verify
        // the counters — all through the real binary surface, zero reloads.
        let instance = "--preset new-york --scale 0.05 --candidates 15 --facilities 20 -k 3";
        let tsv = tmp("live-replay.tsv");
        let d = mc2ls::prelude::presets::new_york_scaled(0.02).generate();
        let mut buf = Vec::new();
        mc2ls::data::serialize::export_checkins(&d, (40.7, -74.0), &mut buf).unwrap();
        std::fs::write(&tsv, buf).unwrap();

        let port_file = tmp("live-replay.port");
        let _ = std::fs::remove_file(&port_file);
        let serve_line = format!(
            "serve --live {instance} --tau 0.6 --shards 2 --addr 127.0.0.1:0 \
             --port-file {port_file}"
        );
        let server = std::thread::spawn(move || call(&serve_line));

        let addr = {
            let mut waited = 0;
            loop {
                if let Ok(addr) = std::fs::read_to_string(&port_file) {
                    break addr;
                }
                assert!(waited < 60_000, "live server never wrote its port file");
                std::thread::sleep(std::time::Duration::from_millis(20));
                waited += 20;
            }
        };

        let (code, replay) = call(&format!(
            "update --addr {addr} --checkins {tsv} --limit 40 --batch 16"
        ));
        assert_eq!(code, 0, "{replay}");
        assert!(
            replay.contains("replayed 40 events in 3 batches"),
            "{replay}"
        );
        assert!(replay.contains("compactions:  3"), "{replay}");

        // The counters survive into STATS, and nothing was reloaded.
        let (code, stats) = call(&format!("query --addr {addr} --stats"));
        assert_eq!(code, 0, "{stats}");
        assert!(stats.contains("updates:      40 applied"), "{stats}");
        assert!(stats.contains("reloads:      0"), "{stats}");

        // The mutated instance still answers queries.
        let (code, served) = call(&format!("query --addr {addr}"));
        assert_eq!(code, 0, "{served}");
        assert!(served.contains("selected:"), "{served}");

        let (code, bye) = call(&format!("query --addr {addr} --shutdown"));
        assert_eq!(code, 0, "{bye}");
        let (code, out) = server.join().unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("serving live instance"), "{out}");
        assert!(out.contains("server stopped"), "{out}");
    }

    #[test]
    fn update_rejects_bad_flags_cleanly() {
        let (code, out) = call("update --addr 127.0.0.1:1 --checkins nope.tsv --batch 0");
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("bad value"), "{out}");
        let (code, out) = call("update --checkins nope.tsv");
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("--addr") || out.contains("required"), "{out}");
    }

    #[test]
    fn query_reports_connection_failures_cleanly() {
        // Nothing listens on this port; the client must fail with a typed
        // error and exit code 1, never a panic.
        let (code, out) = call("query --addr 127.0.0.1:1 --stats");
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("error:"), "{out}");
    }
}

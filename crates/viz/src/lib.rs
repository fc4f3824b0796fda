//! SVG renderings of MC²LS datasets and solutions.
//!
//! The paper's Fig. 9 shows the spatial distribution of users (gray),
//! existing facilities (green), candidates (red) and the selected result
//! (blue diamonds). [`render_scene`] reproduces that style as a
//! self-contained SVG string — no external graphics dependency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod svg;

pub use svg::SvgCanvas;

use mc2ls_core::{Problem, Solution};
use mc2ls_geo::{Extent, Point, Rect};
use mc2ls_influence::ProbabilityFunction;

/// Rendering options.
#[derive(Debug, Clone)]
pub struct RenderOptions {
    /// Output width in pixels (height follows the aspect ratio).
    pub width_px: u32,
    /// At most this many user positions are drawn (uniform subsample).
    pub max_positions: usize,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            width_px: 800,
            max_positions: 20_000,
        }
    }
}

/// Renders a full scene: user positions (gray), facilities (green),
/// candidates (red), selected sites (blue diamonds).
pub fn render_scene<PF: ProbabilityFunction>(
    problem: &Problem<PF>,
    solution: Option<&Solution>,
    options: &RenderOptions,
) -> String {
    let positions: Vec<Point> = problem
        .users
        .iter()
        .flat_map(|u| u.positions().iter().copied())
        .collect();
    let selected: Vec<Point> = solution
        .map(|s| {
            s.selected
                .iter()
                .map(|&c| problem.candidates[c as usize])
                .collect()
        })
        .unwrap_or_default();
    render_points(
        &positions,
        &problem.facilities,
        &problem.candidates,
        &selected,
        options,
    )
}

fn render_points(
    positions: &[Point],
    facilities: &[Point],
    candidates: &[Point],
    selected: &[Point],
    options: &RenderOptions,
) -> String {
    let mut extent = Extent::new();
    extent.add_all(positions);
    extent.add_all(facilities);
    extent.add_all(candidates);
    let world = extent
        .padded_rect(1.0)
        .unwrap_or_else(|| Rect::new(Point::ORIGIN, Point::new(1.0, 1.0)));

    let mut canvas = SvgCanvas::new(world, options.width_px);
    let step = (positions.len() / options.max_positions.max(1)).max(1);
    for p in positions.iter().step_by(step) {
        canvas.circle(*p, 1.0, "#9e9e9e", 0.45);
    }
    for f in facilities {
        canvas.circle(*f, 3.0, "#2e7d32", 0.9);
    }
    for c in candidates {
        canvas.circle(*c, 3.0, "#c62828", 0.9);
    }
    for s in selected {
        canvas.diamond(*s, 6.0, "#1565c0", 1.0);
    }
    canvas.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc2ls_influence::{MovingUser, Sigmoid};

    fn tiny_problem() -> Problem {
        let users = vec![
            MovingUser::new(vec![Point::new(0.0, 0.0), Point::new(0.5, 0.5)]),
            MovingUser::new(vec![Point::new(2.0, 1.0)]),
        ];
        Problem::new(
            users,
            vec![Point::new(1.0, 1.0)],
            vec![Point::new(0.2, 0.2), Point::new(2.0, 0.9)],
            1,
            0.5,
            Sigmoid::paper_default(),
        )
    }

    #[test]
    fn scene_svg_is_well_formed() {
        let p = tiny_problem();
        let svg = render_scene(&p, None, &RenderOptions::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        // 3 position dots + 1 facility + 2 candidates.
        assert_eq!(svg.matches("<circle").count(), 6);
        assert_eq!(svg.matches("<path").count(), 0);
    }

    #[test]
    fn selected_sites_appear_as_diamonds() {
        let p = tiny_problem();
        let sol = Solution {
            selected: vec![1],
            marginal_gains: vec![1.0],
            cinf: 1.0,
        };
        let svg = render_scene(&p, Some(&sol), &RenderOptions::default());
        assert_eq!(svg.matches("<polygon").count(), 1);
        assert!(svg.contains("#1565c0"));
    }

    #[test]
    fn subsampling_caps_point_count() {
        let users = vec![MovingUser::new(
            (0..1000)
                .map(|i| Point::new(i as f64 * 0.01, 0.0))
                .collect(),
        )];
        let p = Problem::new(
            users,
            vec![Point::ORIGIN],
            vec![Point::ORIGIN],
            1,
            0.5,
            Sigmoid::paper_default(),
        );
        let svg = render_scene(
            &p,
            None,
            &RenderOptions {
                width_px: 400,
                max_positions: 100,
            },
        );
        let dots = svg.matches("<circle").count();
        assert!(dots <= 110, "got {dots} dots");
    }

    #[test]
    fn aspect_ratio_follows_world() {
        let p = tiny_problem();
        let svg = render_scene(
            &p,
            None,
            &RenderOptions {
                width_px: 500,
                max_positions: 10,
            },
        );
        assert!(svg.contains("width=\"500\""));
    }
}

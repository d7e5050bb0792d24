//! The planner behind `pyramid-sweep`, the quadtree-pyramid workload: the
//! `pyramid` stanza of the committed document `scenarios/pyramid-sweep.json`,
//! which the registry embeds.
//!
//! Pyramids are the paper's example of a family whose structure is locally
//! verifiable; the sweep checks structural integrity per height and
//! enumerates distinct views per radius through the shared cache (pyramid
//! levels are self-similar, so view classes repeat heavily across heights).

use crate::cell::{CellOutcome, CellSpec};
use crate::scenario::{Plan, SweepConfig};
use ld_constructions::pyramid::{Pyramid, PyramidLabel};
use ld_local::cache::ViewCache;
use ld_local::enumeration::distinct_oblivious_views_of_cached;
use std::sync::Arc;

fn structure_cell(plan: &mut Plan, h: u32) {
    let spec = CellSpec::new(
        format!("pyramid/h={h}/structure"),
        [
            ("family", "pyramid".to_string()),
            ("h", h.to_string()),
            ("check", "structure".to_string()),
            ("expect", "valid".to_string()),
        ],
    );
    plan.push(spec, move |_seed| {
        let pyramid = Pyramid::new(h).expect("swept heights construct");
        let valid = pyramid.verify_structure();
        CellOutcome::new(if valid { "valid" } else { "invalid" }, valid)
            .with_metric("nodes", pyramid.labeled().node_count() as f64)
            .with_metric("corner_distance", pyramid.corner_distance() as f64)
    });
}

fn views_cell(plan: &mut Plan, cache: &Arc<ViewCache<PyramidLabel>>, h: u32, radius: usize) {
    let spec = CellSpec::new(
        format!("pyramid/h={h}/views/radius={radius}"),
        [
            ("family", "pyramid".to_string()),
            ("h", h.to_string()),
            ("check", "views".to_string()),
            ("radius", radius.to_string()),
            ("expect", "enumerated".to_string()),
        ],
    );
    let cache = cache.clone();
    plan.push(spec, move |_seed| {
        let pyramid = Pyramid::new(h).expect("swept heights construct");
        let views = distinct_oblivious_views_of_cached(pyramid.labeled(), radius, &cache);
        CellOutcome::new("enumerated", !views.is_empty())
            .with_metric("distinct_views", views.len() as f64)
            .with_metric("nodes", pyramid.labeled().node_count() as f64)
    });
}

/// Plans the `pyramid` stanza: a structure cell and view cells at radii
/// `0..=2` for every height whose pyramid fits `max_n`.
pub(crate) fn pyramid_cells(
    plan: &mut Plan,
    cache: &Arc<ViewCache<PyramidLabel>>,
    config: &SweepConfig,
) {
    for h in 1u32.. {
        let Ok(pyramid) = Pyramid::new(h) else { break };
        if pyramid.labeled().node_count() > config.max_n {
            break;
        }
        structure_cell(plan, h);
        for radius in 0..=2usize {
            views_cell(plan, cache, h, radius);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scenarios, stream};

    #[test]
    fn pyramids_verify_and_enumerate() {
        let config = SweepConfig {
            max_n: 100,
            threads: 2,
            // One-cell shards keep the sweep on the worker pool.
            shard_size: 1,
            seed: 4,
            ..SweepConfig::default()
        };
        let report =
            stream::collect(scenarios::find("pyramid-sweep").unwrap().as_ref(), &config).unwrap();
        assert!(report.cells.len() >= 8, "{} cells", report.cells.len());
        assert_eq!(report.panicked(), 0);
        assert_eq!(report.failed(), 0);
        assert!(report.cache_hit_rate() > 0.0);
    }
}

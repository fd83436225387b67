//! Exchange-partner selection: `Core::new` picks each managed tile's 4
//! nearest same-cluster peers by partial selection; these tests pin it
//! to the full-sort definition on small, medium and mega floorplans,
//! with one global PM domain and with hierarchical clusters.

use super::*;
use crate::floorplan::{self, SocConfig};
use crate::workload;

/// The definition: sort every same-cluster peer by `(hop, tile id)` and
/// keep the first 4.
fn reference(soc: &SocConfig, clusters: &[Vec<usize>]) -> Vec<(usize, Vec<usize>)> {
    let mut out = Vec::new();
    for members in clusters {
        for &ti in members {
            let mut peers: Vec<(usize, usize)> = members
                .iter()
                .filter(|&&tj| tj != ti)
                .map(|&tj| (soc.topology.hop_distance(TileId(ti), TileId(tj)), tj))
                .collect();
            peers.sort();
            out.push((ti, peers.iter().take(4).map(|&(_, tj)| tj).collect()));
        }
    }
    out.sort();
    out
}

fn assert_partners_match(soc: SocConfig, clusters: Option<Vec<Vec<usize>>>) {
    let managed: Vec<usize> = soc.managed_tiles().iter().map(|t| t.index()).collect();
    let domains = clusters.clone().unwrap_or_else(|| vec![managed.clone()]);
    let expected = reference(&soc, &domains);
    let wl = workload::parallel_all(&soc, 1);
    let cfg = SimConfig::for_large_soc(
        ManagerKind::BlitzCoin,
        soc.total_p_max() * 0.3,
        soc.n_managed(),
    );
    let name = soc.name.clone();
    let sim = match clusters {
        Some(c) => Simulation::with_clusters(soc, wl, cfg, c),
        None => Simulation::new(soc, wl, cfg),
    };
    let core = Core::new(&sim, SimRng::seed(0));
    let mut got: Vec<(usize, Vec<usize>)> = managed
        .iter()
        .map(|&ti| (ti, core.tiles[ti].partners.clone()))
        .collect();
    got.sort();
    assert_eq!(got, expected, "{name}");
    for &ti in &managed {
        assert_eq!(core.tiles[ti].suspect.len(), core.tiles[ti].partners.len());
    }
}

/// Two interleaved clusters (alternating managed tiles), so a cluster
/// is not spatially contiguous and small ones have fewer than 4 peers.
fn interleaved(soc: &SocConfig) -> Vec<Vec<usize>> {
    let mut halves = vec![Vec::new(), Vec::new()];
    for (k, t) in soc.managed_tiles().iter().enumerate() {
        halves[k % 2].push(t.index());
    }
    halves
}

#[test]
fn partners_match_full_sort_on_presets() {
    for soc in [floorplan::soc_3x3(), floorplan::soc_6x6()] {
        let hier = interleaved(&soc);
        assert_partners_match(soc.clone(), None);
        assert_partners_match(soc, Some(hier));
    }
}

#[test]
fn partners_match_full_sort_on_mega_mesh() {
    let mm = floorplan::mega_mesh(16);
    assert_partners_match(mm.soc.clone(), None);
    assert_partners_match(mm.soc, Some(mm.clusters));
}

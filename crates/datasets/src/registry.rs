//! Named benchmark catalogue with fixed seeds.
//!
//! Names mirror the paper's datasets:
//!
//! * partially inductive: `wn.v1..v4`, `fb.v1..v4`, `nell.v1..v4`
//!   (synthetic stand-ins for the GraIL splits of WN18RR, FB15k-237 and
//!   NELL-995 — see DESIGN.md for the substitution argument);
//! * fully inductive: `nell.v1.v3`, `nell.v2.v3`, `nell.v4.v3`, `fb.v1.v4`;
//! * MaKEr-style: `fb-ext`, `nell-ext`.
//!
//! Family profiles differ the way the real datasets differ: the `wn` family
//! is sparse with few relations (many empty enclosing subgraphs — where the
//! NE module matters), `fb` is dense with a large vocabulary and noise
//! (where attention matters), `nell` sits in between and carries the
//! ontology experiments.

use crate::benchmark::{partial_benchmark, Benchmark};
use crate::ext::ext_benchmark;
use crate::fully::fully_inductive_benchmark;
use crate::rules::GroupKind;
use crate::world::{GraphGenConfig, World, WorldConfig};

/// Generation scale: `Quick` for minutes-long runs, `Full` for paper-scale
/// graphs (~4x the entities and base facts).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Scaled-down graphs for fast experimentation and CI.
    Quick,
    /// Paper-scale graphs.
    Full,
}

impl Scale {
    fn factor(self) -> usize {
        match self {
            Scale::Quick => 1,
            Scale::Full => 4,
        }
    }
}

/// The three dataset families.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Family {
    /// WN18RR-like: sparse, few relations, hierarchy/symmetry heavy.
    Wn,
    /// FB15k-237-like: dense, many relations, composition heavy, noisy.
    Fb,
    /// NELL-995-like: medium density, carries the ontology experiments.
    Nell,
}

impl Family {
    /// The family's name tag as used in benchmark names.
    pub fn tag(self) -> &'static str {
        match self {
            Family::Wn => "wn",
            Family::Fb => "fb",
            Family::Nell => "nell",
        }
    }

    /// The family's world (deterministic).
    pub fn world(self) -> World {
        let cfg = match self {
            Family::Wn => WorldConfig {
                num_classes: 6,
                num_archetypes: 2,
                comp_groups: 1,
                long_groups: 1,
                inv_groups: 2,
                sym_groups: 2,
                sub_groups: 1,
                noise_relations: 0,
                seed: 0x574e,
            },
            Family::Fb => WorldConfig {
                num_classes: 12,
                num_archetypes: 4,
                comp_groups: 30,
                long_groups: 10,
                inv_groups: 10,
                sym_groups: 5,
                sub_groups: 10,
                noise_relations: 5,
                seed: 0xfb15,
            },
            Family::Nell => WorldConfig {
                num_classes: 10,
                num_archetypes: 3,
                comp_groups: 14,
                long_groups: 6,
                inv_groups: 8,
                sym_groups: 4,
                sub_groups: 6,
                noise_relations: 4,
                seed: 0x4e11,
            },
        };
        World::new(cfg)
    }

    /// The fraction of (interleaved) rule groups active in each version,
    /// tuned so relation counts follow the paper's Table Ia trend.
    fn version_fraction(self, version: usize) -> f64 {
        match (self, version) {
            (Family::Wn, 1) => 0.60,
            (Family::Wn, 2) => 0.75,
            (Family::Wn, 3) => 0.90,
            (Family::Wn, 4) => 0.60,
            (Family::Fb, 1) => 0.85,
            (Family::Fb, 2) => 0.92,
            (Family::Fb, 3) => 0.97,
            (Family::Fb, 4) => 1.00,
            (Family::Nell, 1) => 0.13,
            (Family::Nell, 2) => 0.75,
            (Family::Nell, 3) => 1.00,
            (Family::Nell, 4) => 0.65,
            _ => panic!("version must be 1..=4, got {version}"),
        }
    }

    /// Graph sizes `(tr_entities, tr_base, te_entities, te_base)` per
    /// version at scale 1.
    fn sizes(self, version: usize) -> (usize, usize, usize, usize) {
        // versions grow the way the paper's do (v3 largest)
        let vf = match version {
            1 => 1.0,
            2 => 1.5,
            3 => 2.0,
            4 => 1.3,
            _ => panic!("version must be 1..=4"),
        };
        let (te0, tb0, ee0, eb0) = match self {
            Family::Wn => (520, 420, 360, 300),
            Family::Fb => (240, 1900, 170, 1300),
            Family::Nell => (300, 1100, 220, 800),
        };
        let s = |x: usize| (x as f64 * vf) as usize;
        (s(te0), s(tb0), s(ee0), s(eb0))
    }

    /// Per-family generation knobs (sparsity and noise).
    fn gen_knobs(self) -> (f64, usize, f64) {
        // (rule_apply_prob, closure_passes, noise_frac)
        match self {
            Family::Wn => (0.75, 1, 0.03),
            Family::Fb => (0.70, 2, 0.08),
            Family::Nell => (0.80, 2, 0.05),
        }
    }
}

/// Round-robin the world's groups across their kinds, so a prefix of the
/// ordering contains every rule archetype.
fn interleaved_groups(world: &World) -> Vec<usize> {
    let kinds = [
        GroupKind::Composition,
        GroupKind::LongPair,
        GroupKind::Inverse,
        GroupKind::Symmetric,
        GroupKind::Subsumption,
    ];
    let mut buckets: Vec<Vec<usize>> = kinds
        .iter()
        .map(|k| {
            world
                .groups()
                .iter()
                .enumerate()
                .filter(|(_, g)| g.kind == *k)
                .map(|(i, _)| i)
                .collect()
        })
        .collect();
    let mut out = Vec::with_capacity(world.groups().len());
    let mut i = 0;
    while out.len() < world.groups().len() {
        let b = &mut buckets[i % kinds.len()];
        if let Some(g) = b.first().copied() {
            b.remove(0);
            out.push(g);
        }
        i += 1;
    }
    out
}

/// The active groups of one family version.
fn version_groups(family: Family, version: usize) -> Vec<usize> {
    let world = family.world();
    let order = interleaved_groups(&world);
    let n = ((order.len() as f64) * family.version_fraction(version)).ceil() as usize;
    let n = n.clamp(1, order.len());
    let mut g: Vec<usize> = order[..n].to_vec();
    g.sort_unstable();
    g
}

fn gen_cfg(family: Family, entities: usize, base: usize, seed: u64) -> GraphGenConfig {
    let (p, passes, noise) = family.gen_knobs();
    GraphGenConfig {
        num_entities: entities,
        num_base_triples: base,
        entity_offset: 0,
        rule_apply_prob: p,
        closure_passes: passes,
        noise_frac: noise,
        max_triples: 400_000,
        seed,
    }
}

/// All catalogue names.
pub fn registry_names() -> Vec<&'static str> {
    vec![
        "wn.v1",
        "wn.v2",
        "wn.v3",
        "wn.v4",
        "fb.v1",
        "fb.v2",
        "fb.v3",
        "fb.v4",
        "nell.v1",
        "nell.v2",
        "nell.v3",
        "nell.v4",
        "nell.v1.v3",
        "nell.v2.v3",
        "nell.v4.v3",
        "fb.v1.v4",
        "fb-ext",
        "nell-ext",
    ]
}

/// Build a catalogue benchmark by name. Panics on unknown names — the
/// catalogue is a closed, static set (see [`registry_names`]).
pub fn build_benchmark(name: &str, scale: Scale) -> Benchmark {
    let f = scale.factor();
    let parse_family = |tag: &str| match tag {
        "wn" => Family::Wn,
        "fb" => Family::Fb,
        "nell" => Family::Nell,
        other => panic!("unknown family {other:?}"),
    };

    let parts: Vec<&str> = name.split('.').collect();
    match parts.as_slice() {
        // partially inductive: family.vi
        [fam, v] if v.starts_with('v') && !name.contains("ext") => {
            let family = parse_family(fam);
            let version: usize = v[1..].parse().expect("version digit");
            let groups = version_groups(family, version);
            let (tre, trb, tee, teb) = family.sizes(version);
            let seed = hash_name(name);
            partial_benchmark(
                name,
                family.world(),
                &groups,
                gen_cfg(family, tre * f, trb * f, seed),
                gen_cfg(family, tee * f, teb * f, seed.wrapping_add(100)),
            )
        }
        // fully inductive: family.vi.vj
        [fam, vi, vj] => {
            let family = parse_family(fam);
            let i: usize = vi[1..].parse().expect("version digit");
            let j: usize = vj[1..].parse().expect("version digit");
            let train_groups = version_groups(family, i);
            let test_groups = version_groups(family, j);
            let (tre, trb, _, _) = family.sizes(i);
            let (_, _, tee, teb) = family.sizes(j);
            let seed = hash_name(name);
            fully_inductive_benchmark(
                name,
                family.world(),
                &train_groups,
                &test_groups,
                gen_cfg(family, tre * f, trb * f, seed),
                gen_cfg(family, tee * f, teb * f, seed.wrapping_add(100)),
            )
        }
        // ext benchmarks
        [tag] if tag.ends_with("-ext") => {
            let family = parse_family(&tag[..tag.len() - 4]);
            let world = family.world();
            let all: Vec<usize> = (0..world.groups().len()).collect();
            let train_groups = version_groups(family, 2);
            let (tre, trb, tee, _) = family.sizes(2);
            let seed = hash_name(name);
            ext_benchmark(
                name,
                world,
                &train_groups,
                &all,
                gen_cfg(family, tre * f, trb * f, seed),
                tee * f,
                seed.wrapping_add(100),
            )
        }
        _ => panic!("unknown benchmark name {name:?} (see registry_names())"),
    }
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a, deterministic across runs/platforms
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Paper-reported statistics for Table I (for side-by-side printing).
/// Returns `(tr_r, tr_e, tr_t, te_r, te_e, te_t)`.
pub fn paper_table1_stats(name: &str) -> Option<(usize, usize, usize, usize, usize, usize)> {
    Some(match name {
        "wn.v1" => (9, 2746, 6678, 8, 922, 1991),
        "wn.v2" => (10, 6954, 18968, 10, 2757, 4863),
        "wn.v3" => (11, 12078, 32150, 11, 5084, 7470),
        "wn.v4" => (9, 3861, 9842, 9, 7084, 15157),
        "fb.v1" => (180, 1594, 5226, 142, 1093, 2404),
        "fb.v2" => (200, 2608, 12085, 172, 1660, 5092),
        "fb.v3" => (215, 3668, 22394, 183, 2501, 9137),
        "fb.v4" => (219, 4707, 33916, 200, 3051, 14554),
        "nell.v1" => (14, 3103, 5540, 14, 225, 1034),
        "nell.v2" => (88, 2564, 10109, 79, 2086, 5521),
        "nell.v3" => (142, 4647, 20117, 122, 3566, 9668),
        "nell.v4" => (76, 2092, 9289, 61, 2795, 8520),
        // fully inductive (semi rows; TE(fully) printed separately)
        "nell.v1.v3" => (14, 3103, 5540, 106, 2271, 5550),
        "nell.v2.v3" => (88, 2564, 10109, 116, 2803, 6749),
        "nell.v4.v3" => (76, 2092, 9289, 110, 2678, 6754),
        "fb.v1.v4" => (180, 1594, 5226, 200, 3001, 14327),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_builds_quick() {
        for name in registry_names() {
            let b = build_benchmark(name, Scale::Quick);
            assert!(!b.train.targets.is_empty(), "{name}: no train targets");
            assert!(
                b.tests.iter().all(|t| !t.targets.is_empty() || t.name == "u_rel"),
                "{name}: empty test targets"
            );
        }
    }

    #[test]
    fn version_relation_counts_follow_paper_trend() {
        // nell: v1 < v4 < v2 < v3 as in Table Ia
        let count = |v: usize| {
            let groups = version_groups(Family::Nell, v);
            Family::Nell.world().active_relations(&groups).len()
        };
        let (c1, c2, c3, c4) = (count(1), count(2), count(3), count(4));
        assert!(c1 < c4 && c4 < c2 && c2 < c3, "nell counts {c1} {c2} {c3} {c4}");
        assert!(c1 <= 20, "nell v1 should be small, got {c1}");
        assert_eq!(c3, Family::Nell.world().num_relations());
    }

    #[test]
    fn fully_inductive_names_have_unseen_relations() {
        for name in ["nell.v1.v3", "nell.v2.v3", "nell.v4.v3", "fb.v1.v4"] {
            let b = build_benchmark(name, Scale::Quick);
            let semi = b.test("TE(semi)").expect("semi");
            let unseen = semi.graph.present_relations().iter().filter(|r| b.is_unseen(**r)).count();
            assert!(unseen > 0, "{name}: no unseen relations in TE(semi)");
            let fully = b.test("TE(fully)").expect("fully");
            assert!(!fully.targets.is_empty(), "{name}: TE(fully) empty");
        }
    }

    #[test]
    fn deterministic_builds() {
        let a = build_benchmark("nell.v1", Scale::Quick);
        let b = build_benchmark("nell.v1", Scale::Quick);
        assert_eq!(a.train.targets, b.train.targets);
    }

    #[test]
    fn full_scale_is_larger() {
        let q = build_benchmark("wn.v1", Scale::Quick);
        let f = build_benchmark("wn.v1", Scale::Full);
        assert!(f.train.graph.num_triples() > 2 * q.train.graph.num_triples());
    }

    #[test]
    fn wn_family_is_sparser_than_fb() {
        let wn = build_benchmark("wn.v1", Scale::Quick);
        let fb = build_benchmark("fb.v1", Scale::Quick);
        let deg =
            |g: &rmpi_kg::KnowledgeGraph| g.num_triples() as f64 / g.num_present_entities() as f64;
        assert!(
            deg(&wn.train.graph) < deg(&fb.train.graph),
            "wn {} vs fb {}",
            deg(&wn.train.graph),
            deg(&fb.train.graph)
        );
    }

    #[test]
    #[should_panic(expected = "unknown benchmark name")]
    fn unknown_name_panics() {
        build_benchmark("made-up", Scale::Quick);
    }

    #[test]
    fn paper_stats_cover_table1() {
        for name in registry_names() {
            if name.contains("ext") {
                continue;
            }
            assert!(paper_table1_stats(name).is_some(), "{name} missing paper stats");
        }
    }
}

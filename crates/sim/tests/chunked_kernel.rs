//! Differential verification of the lane-widened (chunked) simulation
//! kernel against an in-test scalar reference.
//!
//! The production kernel processes signatures in fixed 4×`u64` chunks
//! (written to autovectorize); this suite re-implements the pre-chunking
//! scalar kernel — one word at a time, straight-line — and pins the two
//! word-for-word:
//!
//! * on deterministic random networks at every tail shape that matters
//!   (1/63/64/65/127/128/256 patterns: sub-word, word-boundary-adjacent,
//!   multi-word, and chunk-boundary counts);
//! * on all twelve registry circuits of the paper's Table 3;
//! * against the per-pattern `Network::eval` oracle, so both kernels are
//!   anchored to the semantic ground truth, not merely to each other.

mod common;

use als_circuits::registry::all_benchmarks;
use als_network::{Network, NodeId};
use als_sim::{error_rate_from_sim, po_words, simulate, PatternSet};
use common::random_network;
use proptest::{seed_from_name, TestRng};

/// The scalar reference kernel: a full flat-arena simulation computed with
/// plain one-word-at-a-time loops (the exact shape the chunked kernel
/// replaced). Returns `(words, words_per_signal)`.
fn scalar_simulate(net: &Network, patterns: &PatternSet) -> (Vec<u64>, usize) {
    let wps = patterns.words_per_signal();
    let tail_mask = patterns.tail_mask();
    let arena = net.node_ids().map(NodeId::index).max().map_or(0, |m| m + 1);
    let mut words = vec![0u64; arena * wps];
    for (i, &pi) in net.pis().iter().enumerate() {
        let base = pi.index() * wps;
        words[base..base + wps].copy_from_slice(patterns.pi_words(i));
        if let Some(last) = words[base..base + wps].last_mut() {
            *last &= tail_mask;
        }
    }
    let mut term = vec![0u64; wps];
    for id in net.topo_order() {
        let node = net.node(id);
        if node.is_pi() {
            continue;
        }
        let base = id.index() * wps;
        let mut out = vec![0u64; wps];
        for cube in node.cover().cubes() {
            term.fill(u64::MAX);
            for (var, phase) in cube.literals() {
                let fbase = node.fanins()[var].index() * wps;
                for w in 0..wps {
                    let f = words[fbase + w];
                    term[w] &= if phase { f } else { !f };
                }
            }
            for w in 0..wps {
                out[w] |= term[w];
            }
        }
        if let Some(last) = out.last_mut() {
            *last &= tail_mask;
        }
        words[base..base + wps].copy_from_slice(&out);
    }
    (words, wps)
}

/// Asserts the production (chunked) simulation is word-identical to the
/// scalar reference on every node of `net`, and spot-checks both against
/// the per-pattern `Network::eval` oracle.
fn assert_chunked_matches_scalar(net: &Network, patterns: &PatternSet, what: &str) {
    let sim = simulate(net, patterns);
    let (scalar, wps) = scalar_simulate(net, patterns);
    for id in net.node_ids() {
        let base = id.index() * wps;
        assert_eq!(
            sim.node_words(id),
            &scalar[base..base + wps],
            "{what}: node {id} chunked ≠ scalar"
        );
    }
    // Anchor to ground truth on a handful of patterns (every pattern for
    // small sets): the signatures must agree with gate-level evaluation.
    let n = patterns.num_patterns();
    let num_pis = net.num_pis();
    if num_pis <= 16 {
        for p in (0..n).step_by(1 + n / 64) {
            let pis: Vec<bool> = (0..num_pis).map(|i| patterns.pi_value(i, p)).collect();
            let outs = net.eval(&pis);
            for ((_, d), want) in net.pos().iter().zip(outs) {
                assert_eq!(sim.node_value(*d, p), want, "{what}: PO {d} pattern {p}");
            }
        }
    }
}

/// Random networks × every tail shape around the word and chunk boundaries.
#[test]
fn chunked_matches_scalar_at_every_tail_shape() {
    let mut rng = TestRng::new(seed_from_name("chunked_matches_scalar_at_every_tail_shape"));
    for case in 0..24 {
        let net = random_network(&mut rng, case);
        for n in [1usize, 63, 64, 65, 127, 128, 256] {
            let vectors: Vec<u64> = (0..n).map(|_| rng.below(u64::MAX)).collect();
            let patterns = PatternSet::from_vectors(net.num_pis(), &vectors);
            assert_eq!(patterns.num_patterns(), n, "exact pattern count");
            assert_chunked_matches_scalar(&net, &patterns, &format!("case {case}, {n} patterns"));
        }
    }
}

/// All twelve Table-3 registry circuits: the chunked kernel must reproduce
/// the scalar arena word-for-word, and the error-rate measurement built on
/// it must see a golden network as exactly error-free.
#[test]
fn chunked_matches_scalar_on_all_registry_circuits() {
    for bench in all_benchmarks() {
        let net = (bench.build)();
        let patterns = PatternSet::random(net.num_pis(), 256, 0xC0DE + net.num_pis() as u64);
        assert_chunked_matches_scalar(&net, &patterns, bench.name);
        let sim = simulate(&net, &patterns);
        let reference = po_words(&net, &sim);
        assert_eq!(
            error_rate_from_sim(&reference, &net, &sim),
            0.0,
            "{}: self-comparison must be exactly zero",
            bench.name
        );
    }
}

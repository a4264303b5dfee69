//! AC small-signal scaling: frequency response of CNFET inverter
//! chains through the `Simulator` session API.
//!
//! For each chain length N the binary runs a multi-decade AC sweep of
//! the input source and reports:
//!
//! * unknown count and the shared Jacobian pattern's nonzeros,
//! * the complex solver's factorisation counters — full pivot-searching
//!   ("symbolic") factorisations vs pattern replays (full plus partial),
//! * complex multiply–accumulate operation counts,
//! * wall-clock for the whole sweep and the per-frequency average,
//! * the low-frequency gain at the first stage output (sanity value).
//!
//! The efficiency contract of the AC subsystem is **asserted**, not
//! assumed: every sweep must order the sparse pattern exactly once and
//! only re-value it at the remaining frequency points, and a repeated
//! sweep on the same session must not rebuild the engine's real
//! Jacobian patterns.
//!
//! Chain sizes default to 2…32 (doubling); pass explicit sizes as
//! arguments for a quicker run (CI smoke-tests `ac_response 2 4`).

use cntfet_bench::paper_device;
use cntfet_circuit::prelude::*;
use cntfet_core::CompactCntFet;
use std::sync::Arc;
use std::time::Instant;

fn chain_simulator(tech: &CntTechnology, stages: usize) -> Simulator {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vin = c.node("in");
    c.add(VoltageSource::dc("VDD", vdd, Circuit::ground(), tech.vdd));
    // Bias at mid-rail: the first stage sits in its active region, so
    // the response has genuine gain and a capacitive corner.
    c.add(VoltageSource::dc(
        "VIN",
        vin,
        Circuit::ground(),
        tech.vdd / 2.0,
    ));
    add_inverter_chain(&mut c, tech, "chain", vin, stages, vdd);
    Simulator::new(c)
}

fn main() {
    let sizes: Vec<usize> = {
        let mut args: Vec<usize> = std::env::args()
            .skip(1)
            .map(|a| a.parse().expect("chain sizes must be positive integers"))
            .collect();
        if args.is_empty() {
            args = vec![2, 4, 8, 16, 32];
        }
        args.sort_unstable();
        args
    };

    let model = Arc::new(CompactCntFet::model2(paper_device(300.0, -0.32)).expect("model 2 fit"));
    let tech = CntTechnology::symmetric(model, 0.8);
    // 7 decades across the aF-load corner (~GHz), 10 points per decade.
    let sweep = AcSweep::decade("VIN", 1e3, 1e10, 10);

    println!("CNFET inverter-chain AC response (Simulator session, complex sparse LU)");
    println!(
        "{:>5} {:>7} {:>7} {:>6} {:>9} {:>9} {:>12} {:>10} {:>11} {:>10}",
        "N",
        "unk",
        "nnz",
        "freqs",
        "symbolic",
        "replays",
        "factor_ops",
        "sweep/ms",
        "perfreq/us",
        "|H1|@1kHz"
    );

    for &n in &sizes {
        let mut sim = chain_simulator(&tech, n);
        let t0 = Instant::now();
        let res = sim.ac(&sweep).expect("ac sweep");
        let ms = 1e3 * t0.elapsed().as_secs_f64();
        let s = *res.stats();
        let c = s.counters;
        let replays = c.replay_refactorizations + c.partial_refactorizations;

        // --- The efficiency contract, checked per sweep. ----------------
        assert_eq!(
            c.symbolic_factorizations, 1,
            "N = {n}: the sparse pattern must be ordered exactly once per sweep"
        );
        assert_eq!(
            replays as usize,
            s.frequencies - 1,
            "N = {n}: every later frequency must re-value, not re-order"
        );

        // A second sweep on the same session reuses the engine's real
        // Jacobian patterns (DC + transient stencil): no extra builds.
        let builds = sim.pattern_builds();
        let res2 = sim.ac(&sweep).expect("repeat ac sweep");
        assert_eq!(
            sim.pattern_builds(),
            builds,
            "N = {n}: a repeated sweep must not rebuild engine patterns"
        );
        assert_eq!(res2.stats().counters.symbolic_factorizations, 1);

        let gain = res.magnitude("chain_c0").expect("first stage")[0];
        println!(
            "{:>5} {:>7} {:>7} {:>6} {:>9} {:>9} {:>12} {:>10.2} {:>11.1} {:>10.2}",
            n,
            sim.circuit().unknown_count(),
            s.jacobian_nnz,
            s.frequencies,
            c.symbolic_factorizations,
            replays,
            c.factor_ops,
            ms,
            1e3 * ms / s.frequencies as f64,
            gain,
        );
    }
    println!("\nok: every sweep ordered its pattern once and re-valued it per frequency");
}

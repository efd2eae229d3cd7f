//! Dispatch equivalence and the datapath goldens.
//!
//! The engine's determinism contract is that event order depends only on
//! `(time, insertion seq)`. The timing wheel is checked against a
//! `(time, seq)` binary-heap oracle in `hostcc-sim`'s own tests; this
//! suite checks the testbed on top of it. Batched dispatch (the
//! `handle_batch` bulk NIC and DMA-completion paths) and the reference
//! one-event-at-a-time dispatch must produce identical metrics — down to
//! histogram quantiles and occupancy sample vectors — and dispatch
//! exactly the same number of events.
//!
//! The golden-digest tests pin today's datapath to digests captured from
//! the pre-slab representation (events carrying `Packet` and `DmaJob` by
//! value): the handle refactor must not move a single metric bit on any
//! engine-bench scenario.

use hostcc::experiment::RunPlan;
use hostcc::{metrics_json, scenarios, RunMetrics, Simulation, TestbedConfig};

fn assert_raw_metrics_identical(name: &str, a: &RunMetrics, b: &RunMetrics) {
    assert_eq!(a.measured, b.measured, "{name}: measured");
    assert_eq!(
        a.delivered_payload_bytes, b.delivered_payload_bytes,
        "{name}: payload"
    );
    assert_eq!(a.delivered_packets, b.delivered_packets, "{name}: packets");
    assert_eq!(a.data_packets_sent, b.data_packets_sent, "{name}: sent");
    assert_eq!(
        (a.drops_buffer_full, a.drops_no_descriptor, a.drops_fabric),
        (b.drops_buffer_full, b.drops_no_descriptor, b.drops_fabric),
        "{name}: drops"
    );
    assert_eq!(
        (a.iotlb_lookups, a.iotlb_misses, a.walk_memory_accesses),
        (b.iotlb_lookups, b.iotlb_misses, b.walk_memory_accesses),
        "{name}: iotlb"
    );
    assert_eq!(a.retransmits, b.retransmits, "{name}: retransmits");
    assert_eq!(a.timeouts, b.timeouts, "{name}: timeouts");
    assert_eq!(a.mean_cwnd, b.mean_cwnd, "{name}: cwnd");
    assert_eq!(
        a.nic_buffer_peak_bytes, b.nic_buffer_peak_bytes,
        "{name}: peak buffer"
    );
    assert_eq!(
        a.occupancy_samples, b.occupancy_samples,
        "{name}: occupancy samples"
    );
    // Histograms: exact counts and sums (sums are tracked outside the
    // buckets, so equality here means every sample value matched).
    assert_eq!(a.host_delay.count(), b.host_delay.count());
    assert_eq!(a.host_delay.sum(), b.host_delay.sum());
    assert_eq!(a.host_delay.min(), b.host_delay.min());
    assert_eq!(a.host_delay.max(), b.host_delay.max());
    assert_eq!(a.rtt.count(), b.rtt.count());
    assert_eq!(a.rtt.sum(), b.rtt.sum());
    assert_eq!(
        a.stage_breakdown.total_sum_ns(),
        b.stage_breakdown.total_sum_ns(),
        "{name}: stage breakdown"
    );
}

/// FNV-1a-64 over the exported metrics JSON: a one-bit change anywhere in
/// the headline metrics, histograms, or stage breakdown moves the digest.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Pin a scenario to a golden digest captured from the by-value datapath
/// (events carrying `Packet`/`DmaJob` directly, before the slab refactor).
/// `golden = (dispatched, delivered, (lookups, misses, walks), fnv, len)`.
///
/// Runs twice — batched dispatch on (the library default) and off —
/// and holds both runs to the *same* digest: batched dispatch must be
/// bit-for-bit invisible in every exported metric.
fn assert_golden(name: &str, cfg: TestbedConfig, golden: (u64, u64, (u64, u64, u64), u64, usize)) {
    let plan = RunPlan::quick();
    for batched in [true, false] {
        let mode = if batched { "batched" } else { "reference" };
        let mut sim = Simulation::new(cfg.clone());
        sim.set_batched(batched);
        let m = sim.run(plan.warmup, plan.measure);
        let json = metrics_json(&m, &sim.world().counters, None);
        let (dispatched, delivered, iotlb, fnv, len) = golden;
        assert_eq!(
            sim.dispatched_total(),
            dispatched,
            "{name} ({mode}): dispatched"
        );
        assert_eq!(m.delivered_packets, delivered, "{name} ({mode}): delivered");
        assert_eq!(
            (m.iotlb_lookups, m.iotlb_misses, m.walk_memory_accesses),
            iotlb,
            "{name} ({mode}): iotlb"
        );
        assert_eq!(json.len(), len, "{name} ({mode}): metrics JSON length");
        assert_eq!(
            fnv64(json.as_bytes()),
            fnv,
            "{name} ({mode}): metrics JSON digest diverged from the by-value datapath"
        );
    }
}

#[test]
fn golden_incast_matches_by_value_datapath() {
    assert_golden(
        "incast",
        scenarios::fig3(12, true),
        (
            380592,
            26857,
            (107444, 43870, 160680),
            0x88de29425ec84dd2,
            2124,
        ),
    );
}

#[test]
fn golden_antagonist_sweep_matches_by_value_datapath() {
    assert_golden(
        "antagonist_0",
        scenarios::fig6(0, true),
        (
            380592,
            26857,
            (107444, 43870, 160680),
            0x88de29425ec84dd2,
            2124,
        ),
    );
    assert_golden(
        "antagonist_8",
        scenarios::fig6(8, true),
        (
            297964,
            20444,
            (81789, 30737, 112411),
            0xc0af09a8f4d253dc,
            2108,
        ),
    );
    assert_golden(
        "antagonist_15",
        scenarios::fig6(15, true),
        (
            236160,
            17086,
            (68376, 20822, 75560),
            0xdad182da58697905,
            2108,
        ),
    );
}

#[test]
fn golden_cluster_fleet_matches_by_value_datapath() {
    let goldens = [
        (387557, 28061, (112136, 0, 0), 0xe3e999e4e962f414, 1978),
        (
            368793,
            25738,
            (102982, 39954, 146063),
            0x3acf8484a8bd19c7,
            2132,
        ),
    ];
    for (host, golden) in goldens.into_iter().enumerate() {
        let mut cfg = scenarios::with_mixed_reads(scenarios::baseline());
        cfg.seed = 0xF1EE7 + host as u64;
        cfg.receiver_threads = 8 + 4 * (host as u32 % 2);
        cfg.antagonist_cores = 4 * (host as u32 % 3);
        assert_golden(&format!("fleet_{host}"), cfg, golden);
    }
}

/// Randomised differential test at the simulation level: random scenario
/// draws (seed, fan-in, core counts, antagonist load, IOMMU mode, read
/// mix, recovery policy) must produce identical dispatch counts and
/// bit-identical metrics with slot-drain batching on and off. The
/// queue-level twin lives in `hostcc-sim`'s `queue.rs` (200k-op
/// `pop`-vs-`pop_slot` sequence check); this covers the full datapath
/// including the batch handlers in `world.rs`.
#[test]
fn random_scenarios_are_batching_invariant() {
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    let plan = RunPlan::quick();
    let mut s = 0x5EED_CAFE_u64;
    for draw in 0..4 {
        let mut cfg = if lcg(&mut s).is_multiple_of(2) {
            scenarios::with_mixed_reads(scenarios::baseline())
        } else {
            scenarios::baseline()
        };
        if lcg(&mut s).is_multiple_of(2) {
            cfg = scenarios::with_strict_iommu(cfg);
        }
        cfg.seed = lcg(&mut s);
        cfg.senders = 4 + (lcg(&mut s) % 6) as u32;
        cfg.receiver_threads = 2 + (lcg(&mut s) % 6) as u32;
        cfg.antagonist_cores = (lcg(&mut s) % 12) as u32;
        cfg.flow.partial_ack_rtx = lcg(&mut s).is_multiple_of(2);
        let name = format!("draw_{draw}");

        let mut batched = Simulation::new(cfg.clone());
        let mb = batched.run(plan.warmup, plan.measure);
        let mut per_event = Simulation::new(cfg);
        per_event.set_batched(false);
        let mp = per_event.run(plan.warmup, plan.measure);

        assert_eq!(
            batched.dispatched_total(),
            per_event.dispatched_total(),
            "{name}: dispatched-event counts diverged"
        );
        let jb = metrics_json(&mb, &batched.world().counters, None);
        let jp = metrics_json(&mp, &per_event.world().counters, None);
        assert_eq!(jb, jp, "{name}: metrics JSON diverged");
        assert_raw_metrics_identical(&name, &mb, &mp);
    }
}

/// The six coarse-time goldens: the same engine-bench scenarios as the
/// exact goldens above, run through `scenarios::with_coarse_time` (64 ns
/// grid + chain fusion). Coarse time is an explicit opt-in that trades
/// sub-slot timing for dispatch batching, so it pins its *own* digests —
/// these values were captured when quantisation moved to the event-queue
/// boundary (components keep exact internal clocks, so coarse links no
/// longer cap at one packet per grid step) and any drift from them is a
/// regression. Each scenario still runs with
/// batching on and off against the same digest: quantisation must not
/// break the batching-invariance contract.
fn coarse(cfg: TestbedConfig) -> TestbedConfig {
    scenarios::with_coarse_time(cfg)
}

fn fleet_cfg(host: usize) -> TestbedConfig {
    let mut cfg = scenarios::with_mixed_reads(scenarios::baseline());
    cfg.seed = 0xF1EE7 + host as u64;
    cfg.receiver_threads = 8 + 4 * (host as u32 % 2);
    cfg.antagonist_cores = 4 * (host as u32 % 3);
    cfg
}

#[test]
fn golden_coarse_incast_and_antagonist_sweep() {
    assert_golden(
        "coarse_incast",
        coarse(scenarios::fig3(12, true)),
        (
            335864,
            26673,
            (106697, 42618, 156067),
            0xfb2869de1addf07a,
            2127,
        ),
    );
    assert_golden(
        "coarse_antagonist_0",
        coarse(scenarios::fig6(0, true)),
        (
            335864,
            26673,
            (106697, 42618, 156067),
            0xfb2869de1addf07a,
            2127,
        ),
    );
    assert_golden(
        "coarse_antagonist_8",
        coarse(scenarios::fig6(8, true)),
        (
            240104,
            19852,
            (79437, 31715, 116302),
            0xc3e142c295a45b7a,
            2112,
        ),
    );
    assert_golden(
        "coarse_antagonist_15",
        coarse(scenarios::fig6(15, true)),
        (
            201092,
            16612,
            (66468, 22861, 83499),
            0xbf0947e23acd7be0,
            2108,
        ),
    );
}

#[test]
fn golden_coarse_cluster_fleet() {
    let goldens = [
        (379320, 28061, (112139, 0, 0), 0xfbbba3d539451854, 1978),
        (
            340579,
            25356,
            (101455, 39808, 145584),
            0xb0d246104ffae67e,
            2129,
        ),
    ];
    for (host, golden) in goldens.into_iter().enumerate() {
        assert_golden(
            &format!("coarse_fleet_{host}"),
            coarse(fleet_cfg(host)),
            golden,
        );
    }
}

/// Re-pinning helper for the coarse goldens (run with
/// `cargo test -p hostcc-integration-tests capture_coarse -- --ignored --nocapture`
/// after an intentional coarse-path change, then paste the printed tuples
/// into the tests above).
#[test]
#[ignore]
fn capture_coarse_goldens() {
    let plan = RunPlan::quick();
    let mut cases: Vec<(String, TestbedConfig)> = vec![
        ("coarse_incast".into(), coarse(scenarios::fig3(12, true))),
        (
            "coarse_antagonist_0".into(),
            coarse(scenarios::fig6(0, true)),
        ),
        (
            "coarse_antagonist_8".into(),
            coarse(scenarios::fig6(8, true)),
        ),
        (
            "coarse_antagonist_15".into(),
            coarse(scenarios::fig6(15, true)),
        ),
    ];
    for host in 0..2 {
        cases.push((format!("coarse_fleet_{host}"), coarse(fleet_cfg(host))));
    }
    for (name, cfg) in cases {
        let mut sim = Simulation::new(cfg);
        let m = sim.run(plan.warmup, plan.measure);
        let json = metrics_json(&m, &sim.world().counters, None);
        println!(
            "{name}: ({}, {}, ({}, {}, {}), {:#x}, {}),",
            sim.dispatched_total(),
            m.delivered_packets,
            m.iotlb_lookups,
            m.iotlb_misses,
            m.walk_memory_accesses,
            fnv64(json.as_bytes()),
            json.len()
        );
    }
}

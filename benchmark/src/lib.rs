//! End-to-end and per-layer benchmark of the hostcc workspace.
//!
//! One process runs one workload as a closed loop: a single caller
//! repeats a fixed-size job back to back for the requested number of
//! seconds, each repetition from config to checked output. Host times
//! are medians over the repetitions; simulated counts come from the
//! model and repeat exactly for a seed. See `README.md` beside this
//! crate for the workloads, the metrics and what each should move.

pub mod spans;
pub mod workloads;

use spans::Tracer;
use std::path::PathBuf;
use std::time::Instant;
use workloads::{run_rep, Rep, Scale, Workload};

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs): name and unit. A workload that never
/// calls a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.mean_batch", "events"),
    ("host.packets", "count"),
    ("host.ns_per_packet", "ns"),
    ("nic.drop_ratio", "ratio"),
    ("pcie.credit_stalls", "count"),
    ("pcie.admit_ratio", "ratio"),
    ("iommu.iotlb_lookups", "count"),
    ("iommu.iotlb_hit_ratio", "ratio"),
    ("iommu.walk_accesses", "count"),
    ("memsys.mem_bw_gbytes", "GB/s"),
    ("transport.retransmit_ratio", "ratio"),
    ("fleet.new_s", "s"),
    ("fleet.probe_s", "s"),
    ("fleet.rebalance_s", "s"),
    ("fleet.run_s", "s"),
    ("fleet.export_s", "s"),
    ("fleet.bytes_per_host", "B"),
    ("fleet.run_bytes_per_host", "B"),
    ("fleet.epochs", "count"),
    ("fleet.super_epochs", "count"),
    ("fleet.events_per_epoch", "events"),
    ("fleet.imbalance", "ratio"),
    ("fleet.ns_per_event", "ns"),
    ("fleet.slices", "count"),
    ("fleet.slice_ms.p50", "ms"),
    ("fleet.slice_ms.p99", "ms"),
    ("snap.bytes", "B"),
    ("snap.save_ms", "ms"),
    ("snap.restore_ms", "ms"),
    ("campaign.crash_s", "s"),
    ("campaign.resume_s", "s"),
    ("campaign.checkpoints", "count"),
    ("campaign.artifact_bytes", "B"),
    ("trace.overhead", "ratio"),
    ("error_rate", "ratio"),
];

/// Memory metrics read from the first traced repetition only: it is the
/// one whose heap starts empty, so its RSS deltas are the footprint.
const FIRST_REP_ONLY: &[&str] = &["fleet.bytes_per_host", "fleet.run_bytes_per_host"];

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1]; 0 when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget: repetitions start until this much has passed.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory for the span file and the campaign scratch directory.
    pub out_dir: PathBuf,
    /// Problem size.
    pub scale: Scale,
}

/// What an invocation measured.
#[derive(Debug)]
pub struct Outcome {
    /// No repetition failed.
    pub correct: bool,
    /// Host runs attempted over all repetitions.
    pub attempted: u64,
    /// Host runs that failed.
    pub failed: u64,
    /// `(name, value, unit)` for every end-to-end or per-layer metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable detail printed before the result line.
    pub notes: Vec<String>,
    /// Output digest of each repetition, in order (`None` = no output).
    pub digests: Vec<Option<u64>>,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run the workload for the requested time and aggregate the metrics.
/// A traced invocation alternates traced and untraced repetitions,
/// traced first, so `trace.overhead` compares like with like.
pub fn run(opts: &Options) -> std::io::Result<Outcome> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let work = opts.out_dir.join(format!(
        "work-{}-{}",
        opts.workload.name(),
        std::process::id()
    ));
    let budget = opts.seconds.max(0.0);
    let mut recorder = Tracer::new(opts.trace);
    let mut plain = Tracer::new(false);
    let (mut traced, mut untraced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    let mut digests = Vec::new();
    // An untimed warm-up repetition keeps the one-off costs of a fresh
    // process (first touch of code and static data, lazy set-up in the
    // allocator) out of the medians. It is checked and counted like any
    // other. A traced run has none: its first repetition's heap must
    // start empty for the `FIRST_REP_ONLY` footprints.
    let warmup = if opts.trace {
        None
    } else {
        let rep = run_rep(opts.workload, opts.seed, &opts.scale, &work, &mut plain);
        release_heap();
        digests.push(rep.digest);
        Some(rep)
    };
    // Later repetitions reuse a heap the first one fragmented, so only
    // the first one's peak is the peak of one job.
    let mut first_peak_rss = warmup.as_ref().map(|_| workloads::peak_rss_bytes());
    let start = Instant::now();
    let mut rep_s = Vec::new();
    // Stop at the first failure, the warm-up's too: later repetitions
    // repeat it exactly.
    let mut done = warmup.as_ref().is_some_and(|r| r.failed() > 0);
    while !done {
        let tracing_turn = opts.trace && traced.len() <= untraced.len();
        let tr = if tracing_turn {
            &mut recorder
        } else {
            &mut plain
        };
        let t = Instant::now();
        let rep = run_rep(opts.workload, opts.seed, &opts.scale, &work, tr);
        rep_s.push(t.elapsed().as_secs_f64());
        first_peak_rss.get_or_insert_with(workloads::peak_rss_bytes);
        release_heap();
        digests.push(rep.digest);
        let failed = rep.failed() > 0;
        if tracing_turn {
            traced.push(rep);
        } else {
            untraced.push(rep);
        }
        // Otherwise stop before a repetition of typical length would end
        // past the budget, so a run lasts `--seconds` and no more.
        let enough = !untraced.is_empty() && (!opts.trace || !traced.is_empty());
        let next_end = start.elapsed().as_secs_f64() + median(&mut rep_s.clone());
        done = failed || (enough && next_end > budget);
    }
    let all: Vec<&Rep> = warmup.iter().chain(&traced).chain(&untraced).collect();
    let attempted = all.iter().map(|r| r.attempted).sum();
    let mut failed = all.iter().map(|r| r.failed()).sum();
    let mut notes: Vec<String> = all.iter().flat_map(|r| r.problems.clone()).collect();
    // Traced and untraced repetitions of one seed must agree exactly.
    let mut distinct: Vec<Option<u64>> = digests.clone();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() > 1 {
        failed = attempted;
        notes.push(format!("repetitions disagree: digests {distinct:x?}"));
    }
    notes.push(format!("output digest(s): {distinct:x?}"));
    notes.push(format!(
        "{}: seed {}, {} warm-up + {} untraced + {} traced repetition(s), \
         {:.2} s timed, {} host run(s) per repetition",
        opts.workload.name(),
        opts.seed,
        warmup.iter().count(),
        untraced.len(),
        traced.len(),
        start.elapsed().as_secs_f64(),
        opts.scale.ops(opts.workload),
    ));
    let wall = |reps: &[Rep]| median(&mut reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let metrics = if opts.trace {
        let mut values = per_layer(&traced);
        values.push(("trace.overhead", wall(&traced) / wall(&untraced)));
        values.push(("error_rate", failed as f64 / attempted as f64));
        let path = opts.out_dir.join(format!(
            "spans-{}-s{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        recorder.write_jsonl(&path, opts.workload.name())?;
        notes.push(format!(
            "wrote {} spans to {}",
            recorder.spans().len(),
            path.display()
        ));
        for (layer, ns) in recorder.self_time_ns() {
            notes.push(format!("self time {layer:<9} {:>12.6} s", ns as f64 / 1e9));
        }
        with_units(PER_LAYER, &values)
    } else {
        let med = |f: fn(&Rep) -> f64| median(&mut untraced.iter().map(f).collect::<Vec<_>>());
        let values = [
            ("wall_s", med(|r| r.wall_s)),
            ("setup_s", med(|r| r.setup_s)),
            ("run_s", med(|r| r.run_s)),
            (
                "peak_rss_mb",
                first_peak_rss.unwrap_or(0) as f64 / (1u64 << 20) as f64,
            ),
        ];
        with_units(END_TO_END, &values)
    };
    for (name, value, unit) in &metrics {
        notes.push(format!("{name:<28} {value:>16.6} {unit}"));
    }
    for (name, pick) in [
        ("wall_s", (|r: &Rep| r.wall_s) as fn(&Rep) -> f64),
        ("setup_s", |r: &Rep| r.setup_s),
    ] {
        let each: Vec<String> = untraced.iter().map(|r| format!("{:.6}", pick(r))).collect();
        notes.push(format!(
            "untraced {name} per repetition: {}",
            each.join(" ")
        ));
    }
    if !opts.trace {
        // Reported in the result line as `failed`/`attempted`; it is not
        // an end-to-end metric because it reads 0 on a correct program.
        notes.push(format!(
            "{:<28} {:>16.6} ratio ({failed} of {attempted} host runs)",
            "error_rate",
            failed as f64 / attempted as f64
        ));
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
        digests,
    })
}

/// Hand the memory a repetition freed back to the kernel, so every
/// repetition starts from the heap of a fresh process and pays the same
/// page faults. Without it glibc keeps the freed pages and raises its
/// mmap threshold, and each fleet repetition of one run builds faster
/// than the one before it (measured: `setup_s` 0.30 s on the first, 0.06 s
/// from the fifth on), so a run's median would depend on how many
/// repetitions fitted in it.
fn release_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` takes no pointers; it only returns free
        // heap pages to the kernel.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Per-layer values: medians over the traced repetitions, slice
/// percentiles over every slice they timed.
fn per_layer(traced: &[Rep]) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    for &(name, _) in PER_LAYER {
        let mut samples: Vec<f64> = traced
            .iter()
            .filter_map(|r| r.layer.get(name).copied())
            .collect();
        if FIRST_REP_ONLY.contains(&name) {
            samples.truncate(1);
        }
        if !samples.is_empty() {
            out.push((name, median(&mut samples)));
        }
    }
    let mut slices: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.fleet_slices_ms.iter().copied())
        .collect();
    if !slices.is_empty() {
        out.push(("fleet.slices", slices.len() as f64));
        out.push(("fleet.slice_ms.p50", quantile(&mut slices, 0.50)));
        out.push(("fleet.slice_ms.p99", quantile(&mut slices, 0.99)));
    }
    out
}

/// Attach units from `catalogue`, in catalogue order; a metric the
/// workload did not produce reads 0.
fn with_units(
    catalogue: &[(&'static str, &'static str)],
    values: &[(&'static str, f64)],
) -> Vec<(&'static str, f64, &'static str)> {
    catalogue
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            (name, if v.is_finite() { v } else { 0.0 }, unit)
        })
        .collect()
}

/// Where a checkout keeps the benchmark's outputs, relative to its root.
pub const OUT_DIR: &str = ".bench_out";

//! The three workloads. Each repetition builds its program input from
//! the benchmark seed, calls the workspace crates' public functions,
//! times those calls from outside through the [`Tracer`], and checks the
//! output: a pinned digest where one exists, and structural invariants
//! on every seed.

use crate::spans::Tracer;
use hostcc::experiment::RunPlan;
use hostcc::fleet::{Fleet, FleetConfig};
use hostcc::report::{f, pct, Table};
use hostcc::{CounterRegistry, RunMetrics, Simulation, TestbedConfig};
use hostcc_campaign::artifact::json_u64_field;
use hostcc_campaign::{execute, ExecuteOptions, Manifest, PointSpec};
use hostcc_sim::{fnv1a_64, SimDuration, SimTime, SnapReader};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Worker threads of the fleet engine: the 2 cores the benchmark is
/// sized for, so the closed loop never oversubscribes them.
pub const FLEET_SHARDS: u32 = 2;
/// Round-robin probe before `rebalance`, as in `hostcc fleet --rebalance`.
const FLEET_PROBE: SimDuration = SimDuration::from_micros(300);
/// Simulated length of one timed fleet `run_to` slice.
const FLEET_SLICE: SimDuration = SimDuration::from_micros(100);
/// Campaign grid: three single-host scenarios × two seeds.
const CAMPAIGN_SCENARIOS: &str = "incast, antagonist-8, chaos-replay";
const CAMPAIGN_POINTS: u64 = 6;
/// Rounds of constructing every campaign point per repetition;
/// `setup_s` is their median.
const CAMPAIGN_SETUP_ROUNDS: usize = 5;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 1,000 light hosts on `tree:4` at 2 shards: the only workload that
    /// builds a fleet and runs the parallel engine. Most of its time is
    /// in-host dispatch over many hosts' state.
    FleetTree1k,
    /// A checkpointed campaign crashed mid-point and resumed: snapshot,
    /// fsync and restore next to simulation.
    CampaignCkpt,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::FleetTree1k, Workload::CampaignCkpt];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetTree1k => "fleet_tree1k",
            Workload::CampaignCkpt => "campaign_ckpt",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem size of one repetition. [`Scale::full`] is the benchmark;
/// [`Scale::mini`] runs the same code paths in well under a second for
/// the benchmark's own tests. Pinned digests exist for `full` only.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Fleet size.
    pub fleet_hosts: u32,
    /// Fleet plan after the probe and rebalance.
    pub fleet_warmup: SimDuration,
    /// Fleet measurement interval.
    pub fleet_measure: SimDuration,
    /// Campaign warm-up, whole simulated milliseconds.
    pub campaign_warmup_ms: u64,
    /// Campaign measurement, whole simulated milliseconds.
    pub campaign_measure_ms: u64,
}

impl Scale {
    /// The benchmark's problem size.
    pub fn full() -> Scale {
        Scale {
            fleet_hosts: 1_000,
            fleet_warmup: SimDuration::from_millis(1),
            fleet_measure: SimDuration::from_millis(2),
            campaign_warmup_ms: 5,
            campaign_measure_ms: 10,
        }
    }

    /// A miniature of every workload for tests.
    pub fn mini() -> Scale {
        Scale {
            fleet_hosts: 16,
            fleet_warmup: SimDuration::from_micros(200),
            fleet_measure: SimDuration::from_micros(400),
            campaign_warmup_ms: 1,
            campaign_measure_ms: 2,
        }
    }

    /// Host runs ("operations") in one repetition of `w`.
    pub fn ops(&self, w: Workload) -> u64 {
        match w {
            Workload::FleetTree1k => u64::from(self.fleet_hosts),
            Workload::CampaignCkpt => CAMPAIGN_POINTS,
        }
    }
}

/// Output digests pinned at the full scale: `(workload, seed, digest)`.
/// Seed 1 is the default seed; seed 7 was held out while the benchmark
/// was written. Any other seed is checked by invariants only. The
/// campaign digests equal those of an uninterrupted `hostcc campaign run`
/// of the same manifest.
const PINNED: &[(&str, u64, u64)] = &[
    ("fleet_tree1k", 1, 0x8baf_25f4_dd5d_c1c9),
    ("fleet_tree1k", 7, 0x0fe1_2b71_64bf_6755),
    ("campaign_ckpt", 1, 0x9875_70e7_e7fe_7e7b),
    ("campaign_ckpt", 7, 0xe79b_b4e6_1a44_bfe8),
];

/// The pinned digest of `w`'s canonical output for `seed`, if any.
pub fn pinned_digest(w: Workload, seed: u64, scale: &Scale) -> Option<u64> {
    if *scale != Scale::full() {
        return None;
    }
    PINNED
        .iter()
        .find(|(name, s, _)| *name == w.name() && *s == seed)
        .map(|&(_, _, d)| d)
}

/// Everything one repetition measured and checked.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host seconds from config to checked output.
    pub wall_s: f64,
    /// Host seconds spent constructing the simulation state.
    pub setup_s: f64,
    /// Host seconds spent in the simulate calls.
    pub run_s: f64,
    /// Host runs attempted.
    pub attempted: u64,
    /// Host runs that errored, stalled or failed a check (indices).
    failed_ops: std::collections::BTreeSet<u64>,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Digest of the canonical output, when the run produced one.
    pub digest: Option<u64>,
    /// Per-layer values (traced repetitions only).
    pub layer: BTreeMap<&'static str, f64>,
    /// Host ms of each timed fleet slice (`fleet_tree1k`).
    pub fleet_slices_ms: Vec<f64>,
}

impl Rep {
    fn new(attempted: u64) -> Rep {
        Rep {
            attempted,
            ..Rep::default()
        }
    }

    /// Host runs that errored, stalled or failed a check.
    pub fn failed(&self) -> u64 {
        self.failed_ops.len() as u64
    }

    /// Record a failed check of host run `op`.
    fn fail(&mut self, op: u64, problem: String) {
        self.failed_ops.insert(op);
        self.problems.push(problem);
    }

    /// Record a failed check that affects every host run.
    fn fail_every(&mut self, problem: String) {
        self.failed_ops.extend(0..self.attempted);
        self.problems.push(problem);
    }

    /// Record a failure that voids the whole repetition.
    fn fail_all(mut self, problem: String) -> Rep {
        self.fail_every(problem);
        self
    }

    fn check_digest(&mut self, w: Workload, seed: u64, scale: &Scale, digest: u64) {
        self.digest = Some(digest);
        if let Some(want) = pinned_digest(w, seed, scale) {
            if want != digest {
                self.fail_every(format!(
                    "output digest {digest:#018x} != pinned {want:#018x}"
                ));
            }
        }
    }
}

/// Run one repetition of `w`. `work` is a scratch directory the
/// campaign workload may create and must leave removed.
pub fn run_rep(w: Workload, seed: u64, scale: &Scale, work: &Path, tr: &mut Tracer) -> Rep {
    tr.next_run();
    let (rep, _) = tr.span("bench.rep", |tr| match w {
        Workload::FleetTree1k => fleet_tree1k(seed, scale, tr),
        Workload::CampaignCkpt => campaign_ckpt(seed, scale, work, tr),
    });
    rep
}

/// Totals over host runs, for the host-datapath layer metrics.
#[derive(Default)]
struct HostTotals {
    runs: u64,
    packets: u64,
    sent: u64,
    drops: u64,
    retransmits: u64,
    credit_stalls: u64,
    admissions: u64,
    lookups: u64,
    hits: u64,
    walks: u64,
    mem_bw_gbytes: f64,
}

impl HostTotals {
    fn add(&mut self, m: &RunMetrics, c: &CounterRegistry) {
        self.runs += 1;
        self.packets += m.delivered_packets;
        self.sent += m.data_packets_sent;
        self.drops += m.host_drops();
        self.retransmits += m.retransmits;
        self.credit_stalls += c.since_baseline("pcie.credits.stalls");
        self.admissions += c.since_baseline("pcie.credits.admissions");
        self.lookups += c.since_baseline("iommu.iotlb.lookups");
        self.hits += c.since_baseline("iommu.iotlb.hits");
        self.walks += m.walk_memory_accesses;
        self.mem_bw_gbytes += m.memory_bandwidth_gbytes();
    }

    /// Fill the host-datapath metrics; `run_s` is the host time of the
    /// simulate calls that produced these runs.
    fn record(&self, layer: &mut BTreeMap<&'static str, f64>, run_s: f64) {
        layer.insert("host.packets", self.packets as f64);
        layer.insert("host.ns_per_packet", ratio(run_s * 1e9, self.packets));
        layer.insert("nic.drop_ratio", ratio(self.drops as f64, self.sent));
        layer.insert("pcie.credit_stalls", self.credit_stalls as f64);
        layer.insert(
            "pcie.admit_ratio",
            ratio(self.admissions as f64, self.admissions + self.credit_stalls),
        );
        layer.insert("iommu.iotlb_lookups", self.lookups as f64);
        layer.insert(
            "iommu.iotlb_hit_ratio",
            ratio(self.hits as f64, self.lookups),
        );
        layer.insert("iommu.walk_accesses", self.walks as f64);
        layer.insert(
            "memsys.mem_bw_gbytes",
            self.mem_bw_gbytes / self.runs.max(1) as f64,
        );
        layer.insert(
            "transport.retransmit_ratio",
            ratio(self.retransmits as f64, self.sent),
        );
    }
}

fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Invariants every host run must satisfy on any seed: the exact
/// per-stage decomposition adds up to the host-delay histogram.
fn check_host(m: &RunMetrics) -> Result<(), String> {
    let stages = m.stage_breakdown.total_sum_ns();
    if stages != m.host_delay.sum() {
        return Err(format!(
            "stage sums {stages} ns != host-delay sum {} ns",
            m.host_delay.sum()
        ));
    }
    if m.stage_breakdown.count() != m.host_delay.count() {
        return Err(format!(
            "stage samples {} != host-delay samples {}",
            m.stage_breakdown.count(),
            m.host_delay.count()
        ));
    }
    Ok(())
}

/// Lifetime packets delivered and sent (not just the measured interval,
/// whose boundary can split a packet's send from its delivery).
fn lifetime_delivered_sent(c: &CounterRegistry) -> (u64, u64) {
    (
        c.lifetime("nic.delivered_packets"),
        c.lifetime("transport.data_sent"),
    )
}

/// The `run_to` deadlines that cover `start..t2` in steps of at most
/// `step`, with the end of warm-up `t1` always one of them.
fn slice_ends(start: SimTime, t1: SimTime, t2: SimTime, step: SimDuration) -> Vec<SimTime> {
    let mut ends = Vec::new();
    let mut t = start;
    while t < t2 {
        t = (t + step).min(if t < t1 { t1 } else { t2 });
        ends.push(t);
    }
    ends
}

/// The fleet the `fleet_tree1k` workload runs.
fn fleet_config(seed: u64, scale: &Scale) -> FleetConfig {
    let mut cfg = FleetConfig::light_fleet(scale.fleet_hosts, FLEET_SHARDS);
    cfg.seed = seed;
    cfg
}

/// Per-host CSV in the layout of `hostcc fleet --csv`.
fn fleet_csv(per_host: &[RunMetrics]) -> String {
    let mut t = Table::new([
        "scenario",
        "tp_gbps",
        "drop_rate",
        "iotlb_miss_per_pkt",
        "hostdelay_p50_us",
        "hostdelay_p99_us",
        "mem_bw_gbytes",
    ]);
    for (h, m) in per_host.iter().enumerate() {
        t.row([
            format!("host{h}"),
            f(m.app_throughput_gbps(), 2),
            pct(m.drop_rate()),
            f(m.iotlb_misses_per_packet(), 2),
            f(m.host_delay_p50_us(), 1),
            f(m.host_delay_p99_us(), 1),
            f(m.memory_bandwidth_gbytes(), 1),
        ]);
    }
    t.to_csv()
}

/// Resident set size of this process, bytes (0 where `/proc` is absent).
fn rss_bytes() -> u64 {
    proc_status_kib("VmRSS:") * 1024
}

/// Peak resident set size of this process, bytes (0 where `/proc` is absent).
pub(crate) fn peak_rss_bytes() -> u64 {
    proc_status_kib("VmHWM:") * 1024
}

fn proc_status_kib(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

fn fleet_tree1k(seed: u64, scale: &Scale, tr: &mut Tracer) -> Rep {
    let hosts = scale.fleet_hosts;
    let mut rep = Rep::new(u64::from(hosts));
    let t0 = Instant::now();
    let cfg = fleet_config(seed, scale);
    let rss_before = rss_bytes();
    let (built, setup_s) = tr.span("fleet.new", |_| {
        cfg.validate().and_then(|()| Fleet::new(&cfg))
    });
    let rss_built = rss_bytes();
    rep.setup_s = setup_s;
    let mut fleet = match built {
        Ok(fleet) => fleet,
        Err(e) => return rep.fail_all(format!("fleet construction failed: {e}")),
    };
    let traced = tr.recording();
    if traced {
        for h in fleet.hosts_mut() {
            h.sim_mut().enable_profiling();
        }
    }
    let (probe, probe_s) = tr.span("fleet.probe", |_| fleet.run_to(fleet.now() + FLEET_PROBE));
    if let Err(e) = probe {
        return rep.fail_all(format!("probe failed: {e}"));
    }
    let (_, rebalance_s) = tr.span("fleet.rebalance", |_| {
        fleet.rebalance();
    });
    let plan = RunPlan {
        warmup: scale.fleet_warmup,
        measure: scale.fleet_measure,
    };
    // Sliced in every mode: a fleet's epoch grid clamps to each `run_to`
    // deadline, so the slice schedule is part of the output.
    let slices = &mut rep.fleet_slices_ms;
    let (result, sim_s) = tr.span("fleet.run", |tr| {
        fleet_run_sliced(&mut fleet, plan, tr, slices)
    });
    rep.run_s = probe_s + rebalance_s + sim_s;
    let per_host = match result {
        Ok(per_host) => per_host,
        Err(e) => return rep.fail_all(format!("fleet run failed: {e}")),
    };
    let rss_run = rss_bytes();
    let (csv, export_s) = tr.span("fleet.export", |_| fleet_csv(&per_host));
    tr.span("bench.check", |_| {
        rep.check_digest(Workload::FleetTree1k, seed, scale, fnv1a_64(csv.as_bytes()));
        let (mut delivered, mut sent) = (0, 0);
        for (h, (m, fh)) in per_host.iter().zip(fleet.hosts()).enumerate() {
            if let Err(e) = check_host(m) {
                rep.fail(h as u64, format!("host {h}: {e}"));
            }
            let (d, s) = lifetime_delivered_sent(&fh.sim().world().counters);
            delivered += d;
            sent += s;
        }
        if delivered > sent {
            rep.fail_every(format!("fleet delivered {delivered} > sent {sent}"));
        }
    });
    rep.wall_s = t0.elapsed().as_secs_f64();
    if traced {
        let events = fleet.dispatched_total();
        let epochs = fleet.epochs();
        let (mut batches, mut batched_events, mut dispatch_ns) = (0, 0, 0);
        let mut totals = HostTotals::default();
        for (m, fh) in per_host.iter().zip(fleet.hosts()) {
            totals.add(m, &fh.sim().world().counters);
            if let Some(p) = fh.sim().profile() {
                batches += p.batches;
                batched_events += p.events;
                dispatch_ns += p.wall_nanos;
            }
        }
        let layer = &mut rep.layer;
        let per_host_bytes = |from: u64, to: u64| (to as f64 - from as f64) / f64::from(hosts);
        layer.insert("sim.events", events as f64);
        // In-host dispatch only, from the per-host profiles.
        layer.insert(
            "sim.ns_per_event",
            ratio(dispatch_ns as f64, batched_events),
        );
        layer.insert("sim.mean_batch", ratio(batched_events as f64, batches));
        totals.record(layer, probe_s + sim_s);
        layer.insert("fleet.new_s", setup_s);
        layer.insert("fleet.probe_s", probe_s);
        layer.insert("fleet.rebalance_s", rebalance_s);
        layer.insert("fleet.run_s", sim_s);
        layer.insert("fleet.export_s", export_s);
        layer.insert(
            "fleet.bytes_per_host",
            per_host_bytes(rss_before, rss_built),
        );
        layer.insert(
            "fleet.run_bytes_per_host",
            per_host_bytes(rss_built, rss_run),
        );
        layer.insert("fleet.epochs", epochs as f64);
        layer.insert("fleet.super_epochs", fleet.super_epochs() as f64);
        layer.insert("fleet.events_per_epoch", ratio(events as f64, epochs));
        layer.insert("fleet.imbalance", fleet.imbalance_ratio());
        // Core time of the engine calls, both shards, per event: in-host
        // dispatch plus epochs, barrier waits and mailbox merge. Dividing
        // `sim.ns_per_event` by it gives the share spent in dispatch.
        let core_ns = (probe_s + sim_s) * 1e9 * f64::from(FLEET_SHARDS);
        layer.insert("fleet.ns_per_event", ratio(core_ns, events));
    }
    rep
}

/// `Fleet::run` driven as timed [`FLEET_SLICE`] `run_to` slices, arming
/// every host at the end of warm-up and snapshotting at the end. The
/// output differs from one unsliced `Fleet::run` (`hostcc fleet`), since
/// every deadline clamps the epoch grid, but it is the same in traced
/// and untraced runs and at any shard count.
fn fleet_run_sliced(
    fleet: &mut Fleet,
    plan: RunPlan,
    tr: &mut Tracer,
    slices_ms: &mut Vec<f64>,
) -> Result<Vec<RunMetrics>, String> {
    let t1 = fleet.now() + plan.warmup;
    let t2 = t1 + plan.measure;
    for end in slice_ends(fleet.now(), t1, t2, FLEET_SLICE) {
        let (outcome, secs) = tr.span("fleet.run_to", |_| fleet.run_to(end));
        outcome.map_err(|e| e.to_string())?;
        slices_ms.push(secs * 1e3);
        if end == t1 {
            tr.span("host.arm_metrics", |_| {
                for h in fleet.hosts_mut() {
                    h.sim_mut().world_mut().arm_metrics(t1);
                }
            });
        }
    }
    Ok(tr
        .span("host.snapshot", |_| {
            fleet
                .hosts_mut()
                .iter_mut()
                .map(|h| h.sim_mut().world_mut().snapshot(t2))
                .collect()
        })
        .0)
}

/// The campaign manifest the `campaign_ckpt` workload executes.
fn campaign_manifest(seed: u64, scale: &Scale) -> String {
    format!(
        "name = bench\nwarmup_ms = {}\nmeasure_ms = {}\ncheckpoint_every_ms = 1\n\
         scenarios = {CAMPAIGN_SCENARIOS}\nseeds = {}, {}\n",
        scale.campaign_warmup_ms,
        scale.campaign_measure_ms,
        seed,
        seed.wrapping_add(1),
    )
}

/// The point-state envelope inside a campaign point checkpoint:
/// label, artifact lines so far, simulation checkpoint.
fn point_sim_bytes(envelope: &[u8]) -> Result<Vec<u8>, String> {
    let mut r = SnapReader::open(envelope).map_err(|e| e.to_string())?;
    r.str().map_err(|e| e.to_string())?;
    r.str().map_err(|e| e.to_string())?;
    Ok(r.bytes().map_err(|e| e.to_string())?.to_vec())
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("removing {}: {e}", dir.display())),
    }
}

fn campaign_ckpt(seed: u64, scale: &Scale, work: &Path, tr: &mut Tracer) -> Rep {
    let mut rep = campaign_job(seed, scale, work, tr);
    if let Err(e) = remove_dir(work) {
        rep.fail_every(e);
    }
    rep
}

fn campaign_job(seed: u64, scale: &Scale, work: &Path, tr: &mut Tracer) -> Rep {
    let mut rep = Rep::new(CAMPAIGN_POINTS);
    let manifest = match Manifest::parse(&campaign_manifest(seed, scale)) {
        Ok(m) => m,
        Err(e) => return rep.fail_all(format!("manifest rejected: {e}")),
    };
    let points = manifest.points();
    let mut configs = Vec::new();
    for p in &points {
        match manifest.build_config(p) {
            Ok(cfg) => configs.push(cfg),
            Err(e) => return rep.fail_all(format!("{}: {e}", p.label)),
        }
    }
    // `execute` builds each point's simulation internally, so set-up is
    // measured by the same construction done outside it, before the
    // timed workload starts: the median of several rounds of all points.
    let mut setup_times = Vec::with_capacity(CAMPAIGN_SETUP_ROUNDS);
    for _ in 0..CAMPAIGN_SETUP_ROUNDS {
        let (valid, secs) = tr.span("bench.setup_probe", |tr| {
            configs.iter().try_for_each(|cfg| {
                let (built, _) = tr.span("sim.new", |_| {
                    cfg.validate().map(|()| Simulation::new(cfg.clone()))
                });
                built.map(drop)
            })
        });
        if let Err(e) = valid {
            return rep.fail_all(format!("config rejected: {e}"));
        }
        setup_times.push(secs);
    }
    rep.setup_s = crate::median(&mut setup_times);
    if let Err(e) = remove_dir(work) {
        return rep.fail_all(e);
    }
    let slices_per_point = scale.campaign_warmup_ms + scale.campaign_measure_ms;
    let t2_ns = slices_per_point * 1_000_000;
    // Crash half-way through the fourth point, so the resume skips three
    // journaled points, restores one checkpoint and runs two fresh.
    let abort = 3 * slices_per_point + slices_per_point / 2;
    let t0 = Instant::now();
    let crash_opts = ExecuteOptions {
        resume: false,
        abort_after_slices: Some(abort),
    };
    let (crash, crash_s) = tr.span("campaign.crash", |_| {
        execute(&manifest, work, &crash_opts, &mut |_| {})
    });
    match crash {
        Ok(r) if r.aborted && r.failed.is_empty() && r.completed.len() == 3 => {}
        Ok(r) => {
            rep.fail_every(format!("crash run: unexpected report {r:?}"));
        }
        Err(e) => return rep.fail_all(format!("crash run failed: {e}")),
    }
    let traced = tr.recording();
    let (probe, probe_s) = if traced {
        tr.span("bench.snap_probe", |tr| {
            snap_probe(&points, &configs, work, tr)
        })
    } else {
        (Ok(BTreeMap::new()), 0.0)
    };
    let resume_opts = ExecuteOptions {
        resume: true,
        abort_after_slices: None,
    };
    let (resume, resume_s) = tr.span("campaign.resume", |_| {
        execute(&manifest, work, &resume_opts, &mut |_| {})
    });
    rep.run_s = crash_s + resume_s;
    match resume {
        Ok(r)
            if !r.aborted
                && r.failed.is_empty()
                && r.fallbacks.is_empty()
                && r.skipped.len() == 3
                && r.resumed.len() == 1
                && r.completed.len() == 3 => {}
        Ok(r) => {
            rep.fail_every(format!("resume run: unexpected report {r:?}"));
        }
        Err(e) => return rep.fail_all(format!("resume run failed: {e}")),
    }
    let (artifacts, _) = tr.span("bench.check", |_| {
        check_campaign(&mut rep, &points, work, t2_ns, seed, scale)
    });
    rep.wall_s = t0.elapsed().as_secs_f64() - probe_s;
    if traced {
        match probe {
            Ok(snap) => rep.layer.extend(snap),
            Err(e) => {
                rep.fail_every(format!("snapshot probe: {e}"));
            }
        }
        let (totals, _) = tr.span("bench.final_probe", |tr| {
            final_point_totals(&mut rep, &points, &configs, work, t2_ns, &artifacts, tr)
        });
        let layer = &mut rep.layer;
        layer.insert("sim.events", artifacts.events as f64);
        layer.insert("sim.ns_per_event", ratio(rep.run_s * 1e9, artifacts.events));
        totals.record(layer, rep.run_s);
        layer.insert("campaign.crash_s", crash_s);
        layer.insert("campaign.resume_s", resume_s);
        layer.insert("campaign.checkpoints", artifacts.checkpoints as f64);
        layer.insert("campaign.artifact_bytes", artifacts.bytes as f64);
    }
    rep
}

/// Restore every point's final checkpoint and snapshot its metrics: the
/// host-datapath totals of the campaign, checked against the invariants
/// and against the `delivered_packets` of the point's final line.
fn final_point_totals(
    rep: &mut Rep,
    points: &[PointSpec],
    configs: &[TestbedConfig],
    work: &Path,
    t2_ns: u64,
    artifacts: &CampaignArtifacts,
    tr: &mut Tracer,
) -> HostTotals {
    let mut totals = HostTotals::default();
    for (p, cfg) in points.iter().zip(configs) {
        let restored = std::fs::read(work.join("checkpoints").join(format!("{}.ckpt", p.label)))
            .map_err(|e| e.to_string())
            .and_then(|env| point_sim_bytes(&env))
            .and_then(|bytes| {
                tr.span("snap.restore", |_| {
                    Simulation::restore_checkpoint(cfg.clone(), &bytes)
                })
                .0
                .map_err(|e| e.to_string())
            });
        let mut sim = match restored {
            Ok(sim) => sim,
            Err(e) => {
                rep.fail(
                    p.index as u64,
                    format!("{}: final checkpoint: {e}", p.label),
                );
                continue;
            }
        };
        let (m, _) = tr.span("host.snapshot", |_| {
            sim.world_mut().snapshot(SimTime::from_nanos(t2_ns))
        });
        if let Err(e) = check_host(&m) {
            rep.fail(p.index as u64, format!("{}: {e}", p.label));
        }
        let want = artifacts.final_delivered.get(&p.label).copied();
        if want != Some(m.delivered_packets) {
            rep.fail(
                p.index as u64,
                format!(
                    "{}: restored delivered {} != final line {want:?}",
                    p.label, m.delivered_packets
                ),
            );
        }
        totals.add(&m, &sim.world().counters);
    }
    totals
}

/// Restore and re-save every point checkpoint left by the crash, timing
/// `Simulation::restore_checkpoint` and `save_checkpoint`. A re-saved
/// image must equal the one restored.
fn snap_probe(
    points: &[PointSpec],
    configs: &[TestbedConfig],
    work: &Path,
    tr: &mut Tracer,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let (mut save_ms, mut restore_ms, mut bytes) = (Vec::new(), Vec::new(), 0usize);
    for (p, cfg) in points.iter().zip(configs) {
        let path = work.join("checkpoints").join(format!("{}.ckpt", p.label));
        let Ok(envelope) = std::fs::read(&path) else {
            continue; // not reached before the crash
        };
        let image = point_sim_bytes(&envelope)?;
        let (restored, restore_s) = tr.span("snap.restore", |_| {
            Simulation::restore_checkpoint(cfg.clone(), &image)
        });
        let sim = restored.map_err(|e| format!("{}: restore: {e}", p.label))?;
        let (saved, save_s) = tr.span("snap.save", |_| sim.save_checkpoint());
        let saved = saved.map_err(|e| format!("{}: save: {e}", p.label))?;
        if saved != image {
            return Err(format!("{}: re-saved checkpoint differs", p.label));
        }
        bytes += image.len();
        restore_ms.push(restore_s * 1e3);
        save_ms.push(save_s * 1e3);
    }
    if save_ms.is_empty() {
        return Err("no point checkpoint at the crash boundary".to_string());
    }
    let mut out = BTreeMap::new();
    out.insert("snap.bytes", bytes as f64 / save_ms.len() as f64);
    out.insert("snap.save_ms", crate::median(&mut save_ms));
    out.insert("snap.restore_ms", crate::median(&mut restore_ms));
    Ok(out)
}

/// What the campaign checks read from the artifacts.
#[derive(Default)]
struct CampaignArtifacts {
    /// `delivered_packets` of each point's final line.
    final_delivered: BTreeMap<String, u64>,
    /// Slice (checkpoint) records across all points.
    checkpoints: u64,
    /// Events dispatched, summed over each point's last slice record.
    events: u64,
    /// Bytes of `points/` + `journal.jsonl`.
    bytes: u64,
}

/// Check the resumed campaign's artifacts: one `done` journal entry and
/// a final line at the end of measurement for every point, and the
/// digest over `points/` + `journal.jsonl`.
fn check_campaign(
    rep: &mut Rep,
    points: &[PointSpec],
    work: &Path,
    t2_ns: u64,
    seed: u64,
    scale: &Scale,
) -> CampaignArtifacts {
    let mut out = CampaignArtifacts::default();
    let mut digest_input = Vec::new();
    let journal = std::fs::read_to_string(work.join("journal.jsonl")).unwrap_or_default();
    for p in points {
        let name = format!("{}.jsonl", p.label);
        let Ok(text) = std::fs::read_to_string(work.join("points").join(&name)) else {
            rep.fail(p.index as u64, format!("{}: artifact missing", p.label));
            continue;
        };
        digest_input.extend_from_slice(name.as_bytes());
        digest_input.push(b'\n');
        digest_input.extend_from_slice(text.as_bytes());
        out.bytes += text.len() as u64;
        let digests: Vec<&str> = text.lines().filter(|l| l.contains("\"digest\"")).collect();
        out.checkpoints += digests.len() as u64;
        out.events += digests
            .last()
            .and_then(|l| json_u64_field(l, "dispatched"))
            .unwrap_or(0);
        let last = text.lines().last().unwrap_or("");
        let is_final =
            last.contains("\"final\":true") && json_u64_field(last, "t_ns") == Some(t2_ns);
        match json_u64_field(last, "delivered_packets") {
            Some(d) if is_final => {
                out.final_delivered.insert(p.label.clone(), d);
            }
            _ => rep.fail(
                p.index as u64,
                format!("{}: no final line at {t2_ns} ns", p.label),
            ),
        }
        let done = format!("{{\"label\":\"{}\",\"status\":\"done\",", p.label);
        let entries = journal.lines().filter(|l| l.starts_with(&done)).count();
        if entries != 1 {
            rep.fail(
                p.index as u64,
                format!("{}: {entries} journal `done` entries", p.label),
            );
        }
    }
    digest_input.extend_from_slice(b"journal.jsonl\n");
    digest_input.extend_from_slice(journal.as_bytes());
    out.bytes += journal.len() as u64;
    rep.check_digest(Workload::CampaignCkpt, seed, scale, fnv1a_64(&digest_input));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_mismatch_fails_every_operation() {
        let scale = Scale::full();
        let mut rep = Rep::new(scale.ops(Workload::FleetTree1k));
        let pinned = pinned_digest(Workload::FleetTree1k, 1, &scale).expect("pinned");
        rep.check_digest(Workload::FleetTree1k, 1, &scale, pinned);
        assert_eq!(rep.failed(), 0);
        rep.check_digest(Workload::FleetTree1k, 1, &scale, pinned ^ 1);
        assert_eq!(rep.failed(), rep.attempted);
        // An unpinned seed is checked by invariants only.
        let mut other = Rep::new(1);
        other.check_digest(Workload::CampaignCkpt, 2, &scale, 42);
        assert_eq!(other.failed(), 0);
    }
}

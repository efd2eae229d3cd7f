//! The benchmark's own tests: a miniature of every workload runs and
//! passes its checks, metric names agree with `BENCHMARK.json`, and two
//! invocations with one seed produce the same digests.

use hostcc_benchmark::spans::Tracer;
use hostcc_benchmark::workloads::{pinned_digest, run_rep, Scale, Workload};
use hostcc_benchmark::{run, Options, END_TO_END, PER_LAYER};
use std::path::PathBuf;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// The `"name"` values of the objects in one top-level array of
/// `BENCHMARK.json`. The file is flat enough that scanning the array's
/// text for `"name": "…"` pairs is exact.
fn names_in(section: &str) -> Vec<String> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} missing"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').expect("value opens") + 1..];
            rest[..rest.find('"').expect("value closes")].to_string()
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

#[test]
fn metric_and_workload_names_match_benchmark_json() {
    let own = |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(names_in("end_to_end"), own(END_TO_END));
    assert_eq!(names_in("per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names_in("workloads"), workloads);
    for name in own(END_TO_END)
        .iter()
        .chain(&own(PER_LAYER))
        .chain(&workloads)
    {
        assert!(valid_name(name), "metric or workload name `{name}`");
    }
}

#[test]
fn every_workload_miniature_passes_its_checks_traced_and_untraced() {
    let scale = Scale::mini();
    for w in Workload::ALL {
        let work = scratch(&format!("mini-{}", w.name()));
        let plain = run_rep(w, 3, &scale, &work, &mut Tracer::new(false));
        assert_eq!(plain.failed(), 0, "{}: {:?}", w.name(), plain.problems);
        assert_eq!(plain.attempted, scale.ops(w));
        assert!(plain.wall_s > 0.0 && plain.run_s > 0.0 && plain.setup_s > 0.0);
        let mut recorder = Tracer::new(true);
        let traced = run_rep(w, 3, &scale, &work, &mut recorder);
        assert_eq!(traced.failed(), 0, "{}: {:?}", w.name(), traced.problems);
        assert!(plain.digest.is_some());
        assert_eq!(
            plain.digest,
            traced.digest,
            "{}: tracing changed the output",
            w.name()
        );
        assert!(traced.layer["sim.events"] > 0.0, "{}", w.name());
        assert!(traced.layer["host.packets"] > 0.0, "{}", w.name());
        assert!(!recorder.spans().is_empty());
        assert!(
            !work.exists(),
            "{}: scratch directory left behind",
            w.name()
        );
    }
}

#[test]
fn two_invocations_with_one_seed_agree_and_seeds_differ() {
    for w in Workload::ALL {
        let opts = |seed| Options {
            workload: w,
            seed,
            seconds: 0.0,
            trace: false,
            out_dir: scratch(&format!("runs-{}", w.name())),
            scale: Scale::mini(),
        };
        let a = run(&opts(5)).expect("first run");
        let b = run(&opts(5)).expect("second run");
        let c = run(&opts(6)).expect("other seed");
        assert!(
            a.correct && b.correct && c.correct,
            "{}: {:?}",
            w.name(),
            a.notes
        );
        assert_eq!(a.digests, b.digests, "{}", w.name());
        assert_ne!(a.digests, c.digests, "{}: seed is not an input", w.name());
    }
}

#[test]
fn traced_invocation_reports_every_per_layer_metric_and_writes_spans() {
    let out_dir = scratch("traced");
    let outcome = run(&Options {
        workload: Workload::FleetTree1k,
        seed: 2,
        seconds: 0.0,
        trace: true,
        out_dir: out_dir.clone(),
        scale: Scale::mini(),
    })
    .expect("traced run");
    assert!(outcome.correct);
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
    let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(names, want);
    let value = |n: &str| outcome.metrics.iter().find(|m| m.0 == n).expect(n).1;
    assert!(value("trace.overhead") > 0.0);
    assert!(value("fleet.slices") > 0.0);
    let spans =
        std::fs::read_to_string(out_dir.join("spans-fleet_tree1k-s2.jsonl")).expect("span file");
    assert!(spans.contains("\"name\":\"fleet.run_to\""));
    assert!(spans
        .lines()
        .last()
        .expect("summary")
        .contains("\"self_ns\""));
}

#[test]
fn default_and_held_out_seeds_are_pinned_at_full_scale() {
    for w in Workload::ALL {
        for seed in [1, 7] {
            assert!(
                pinned_digest(w, seed, &Scale::full()).is_some(),
                "{} seed {seed}",
                w.name()
            );
        }
        assert!(pinned_digest(w, 1, &Scale::mini()).is_none());
    }
}

//! A tiny run of each workload: every named metric prints with its unit, the
//! result line has the agreed shape, and no cell fails; a corrupted golden
//! digest is counted as a failure.

use icfp_perfbench::{end_to_end_names, per_layer_names, run, Options, Outcome, Scale, Workload};
use std::path::PathBuf;

fn tiny(workload: Workload, trace: bool, corrupt_golden: bool) -> Outcome {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "perfbench-{}-{}-{}",
        workload.name(),
        u8::from(trace),
        u8::from(corrupt_golden)
    ));
    let opts = Options {
        workload,
        seed: 7,
        seconds: 0.05,
        trace,
        scale: Scale::TINY,
        out_dir,
        corrupt_golden,
    };
    run(&opts).expect("tiny run sets up")
}

fn assert_result_line(o: &Outcome, names: &[String]) {
    let json = o.result_json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    assert!(!json.contains('\n'));
    let got: Vec<&str> = o.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(got, names.iter().map(String::as_str).collect::<Vec<_>>());
    for m in &o.metrics {
        assert!(m.value.is_finite());
        assert!(
            json.contains(&format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )),
            "{} missing from {json}",
            m.name
        );
    }
}

#[test]
fn every_workload_prints_its_end_to_end_metrics_without_failures() {
    for w in Workload::ALL {
        let o = tiny(w, false, false);
        assert_eq!(o.failed, 0, "{}: {:?}", w.name(), o.lines);
        assert!(o.attempted > 0);
        assert_eq!(o.fail_ratio(), 0.0);
        assert_result_line(&o, &end_to_end_names());
        for m in &o.metrics {
            let prefix = format!("e2e {} = ", m.name);
            let line = o.lines.iter().find(|l| l.starts_with(&prefix));
            let line = line.unwrap_or_else(|| panic!("{}: no line for {}", w.name(), m.name));
            assert!(line.contains(&format!(" {} ", m.unit)), "{line}");
            if m.name != "peak_rss_mb" {
                assert!(m.value > 0.0, "{}: {} is {}", w.name(), m.name, m.value);
            }
        }
        assert!(o.lines.iter().any(|l| l.starts_with("fail_ratio 0 ratio")));
        assert!(o
            .lines
            .iter()
            .any(|l| l.starts_with("perfbench workload=") && l.contains("class=")));
    }
}

#[test]
fn every_workload_prints_its_layer_metrics_closure_and_overhead() {
    for w in Workload::ALL {
        let o = tiny(w, true, false);
        assert_eq!(o.failed, 0, "{}: {:?}", w.name(), o.lines);
        assert_result_line(&o, &per_layer_names());
        for m in &o.metrics {
            let line = format!("layer {} = {} {}", m.name, m.value, m.unit);
            assert!(o.lines.contains(&line), "{}: missing {line}", w.name());
        }
        assert!(o
            .lines
            .iter()
            .any(|l| l.starts_with(&format!("closure {}: wall ", w.name()))));
        assert!(o
            .lines
            .iter()
            .any(|l| l.starts_with("tracing overhead sim_mips: ")));
    }
}

#[test]
fn benchmark_json_lists_every_metric_with_its_unit() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let listed = doc.matches("\"unit\"").count();
    let mut printed = 0;
    for trace in [false, true] {
        for m in tiny(Workload::MissBound, trace, false).metrics {
            let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
            printed += 1;
        }
    }
    assert_eq!(
        printed, listed,
        "BENCHMARK.json lists metrics the benchmark does not print"
    );
}

#[test]
fn the_deterministic_figures_repeat_for_a_seed() {
    for w in [Workload::MissBound, Workload::SweepServed] {
        assert_eq!(
            tiny(w, false, false).figures_digest,
            tiny(w, true, false).figures_digest
        );
    }
}

#[test]
fn a_corrupted_golden_digest_counts_as_failed_cells() {
    for w in Workload::ALL {
        let o = tiny(w, false, true);
        assert!(o.failed > 0, "{}: corruption not detected", w.name());
        assert!(o.failed < o.attempted);
        assert!(o.fail_ratio() > 0.0);
        assert!(o.result_json().starts_with("{\"correct\": false, "));
        assert!(o
            .lines
            .iter()
            .any(|l| l.starts_with("FAILED ") && l.contains("golden")));
    }
}

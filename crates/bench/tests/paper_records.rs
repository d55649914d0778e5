//! Experiment records are lossless: for every experiment, the views
//! rendered from the in-memory record are byte-identical to the views
//! rendered from `load(save(record))`, and so is a hand-built record whose
//! repair-bytes multiset has duplicates and sizes that are not whole
//! cache lines — which an encoding keeping only quantiles, or only
//! distinct values, would not reproduce.

use relaxfault_bench::paper::{views, Experiment, ExperimentRecord};
use relaxfault_util::persist::Persist;
use relaxfault_util::stats::Ecdf;
use std::path::Path;

/// Every byte a record's views write: titles, text, CSV and JSON.
fn rendered(record: &ExperimentRecord) -> String {
    let mut out = String::new();
    for v in views(record) {
        out.push_str(v.name);
        out.push_str(&v.title);
        out.push_str(&v.table.render());
        out.push_str(&v.table.to_csv());
        out.push_str(&v.table.to_json().to_pretty());
    }
    out
}

fn round_trip(record: &ExperimentRecord, dir: &Path) -> ExperimentRecord {
    let path = dir.join(format!("{}.json", record.experiment.name()));
    record.save(&path).expect("save record");
    ExperimentRecord::load(&path).expect("load record")
}

#[test]
fn views_from_saved_records_match_views_from_memory() {
    let dir = std::env::temp_dir().join(format!("rf_paper_records_{}", std::process::id()));
    for exp in Experiment::ALL {
        let record = ExperimentRecord::compute(exp, exp.work(1e-4));
        let back = round_trip(&record, &dir);
        assert_eq!(back, record, "{} changed through save/load", exp.name());
        assert_eq!(
            rendered(&back),
            rendered(&record),
            "{} views differ",
            exp.name()
        );
    }

    // Coverage curves read the whole repair-bytes distribution.
    let mut record = ExperimentRecord::compute(Experiment::Coverage1x, 50);
    let multisets: [&[f64]; 3] = [
        &[100.0, 100.0, 4097.0, 4097.0, 4097.0, 70_000.0, 3_000_000.0],
        &[64.0, 64.0, 64.0, 16_385.0, 200_001.0],
        &[],
    ];
    for (arm, bytes) in record.results.arms.iter_mut().zip(multisets.iter().cycle()) {
        let mut ecdf = Ecdf::new();
        ecdf.extend(bytes.iter().copied());
        arm.repair_bytes = ecdf;
        arm.fully_repaired_nodes = bytes.len() as u64;
        arm.faulty_nodes = bytes.len() as u64 + 3;
    }
    let back = round_trip(&record, &dir);
    assert_eq!(back.results.arms, record.results.arms);
    assert_eq!(
        back.results.arms[0].repair_bytes_counts(),
        [
            (100f64.to_bits(), 2),
            (4097f64.to_bits(), 3),
            (70_000f64.to_bits(), 1),
            (3_000_000f64.to_bits(), 1)
        ]
    );
    assert_eq!(rendered(&back), rendered(&record));
    std::fs::remove_dir_all(&dir).unwrap();
}

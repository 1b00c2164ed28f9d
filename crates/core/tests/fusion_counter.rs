//! The `dasl.fused_stages` counter lives in the process-global
//! `obs::global()` registry, so any test that runs a fused program bumps
//! it. Its exact per-run increments are checked here, in a test binary
//! that holds this one test, so no concurrently running test can move
//! the counter between the two snapshots.

use dassa::prelude::*;

fn fused_stages() -> u64 {
    obs::global().snapshot().counter("dasl.fused_stages")
}

#[test]
fn fusion_counter_counts_exactly_the_fused_stages() {
    // The VM on an in-memory array: detrend | demean | onebit fuse into
    // one apply, saving two passes.
    let data = arrayudf::Array2::from_fn(2, 400, |c, t| {
        ((t as f64 - c as f64 * 2.0) * 0.07).sin() + 0.2 * ((t * 7 + c * 3) % 13) as f64 / 13.0
    });
    let program = dasl::compile("load(\"c\") | detrend | demean | onebit | xcorr(master=ch[0])")
        .expect("compile");
    let before = fused_stages();
    dasa::execute(&program, 100.0, &data, &Haee::builder().threads(1).build()).expect("execute");
    assert_eq!(fused_stages() - before, 2, "VM execution bumps the counter");

    // The interferometry program read from an on-disk corpus through
    // IoPlan + IoExecutor and run by `dasa::run` on two threads.
    let scene = dasgen::Scene::demo(6, 500.0, 120.0, 7);
    let dir = std::env::temp_dir().join("dassa-fusion-counter");
    let _ = std::fs::remove_dir_all(&dir);
    dasgen::write_minute_files(&scene, &dir, "170728224510", 2).expect("write corpus");
    let cat = FileCatalog::scan(&dir).expect("scan");
    let vca = Vca::from_entries(cat.entries()).expect("vca");
    let program = dasl::compile(
        "load(\"corpus\") | detrend | bandpass(0.5, 24) | resample(2) | xcorr(master=ch[0])",
    )
    .expect("compile");
    let plan = IoPlan::for_load(&vca, program.load_spec(), 1).expect("plan");
    let (block, report) = IoExecutor::serial().run(&plan).expect("read");
    assert!(report.is_clean());
    let data: Vec<f64> = block.as_slice().iter().map(|&v| v as f64).collect();
    let data = arrayudf::Array2::from_vec(block.rows(), block.cols(), data);
    let before = fused_stages();
    dasa::run(
        &program.bind(vca.sampling_hz() as f64),
        &data,
        &Haee::builder().threads(2).build(),
    )
    .expect("program");
    assert_eq!(
        fused_stages() - before,
        2,
        "execution bumps the fusion counter"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

//! `reset_peak_rss` gives a section its own peak. This runs as its own
//! test binary with one test, so no concurrent test frees memory between
//! the reset and the peak read.

#[cfg(target_os = "linux")]
#[test]
fn reset_peak_rss_starts_a_fresh_high_water_mark() {
    let start = eea_bench::reset_peak_rss().expect("clear_refs and VmRSS on Linux");
    // Non-zero fill writes every page, so all 64 MiB become resident.
    let block = vec![1u8; 64 << 20];
    let peak = eea_bench::peak_rss_kb().expect("VmHWM on Linux");
    assert!(
        peak >= start + (60 << 10),
        "peak {peak} KiB after touching 64 MiB from {start} KiB"
    );
    std::hint::black_box(&block);
}

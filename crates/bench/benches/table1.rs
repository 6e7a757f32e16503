//! Benches backing Table 1: each benchmark's native workload at quick
//! scale, orig vs SharC, so regressions in check cost show up in
//! CI-sized runs. Use the `table1` binary for the full table.
//!
//! Runs on the sharc-testkit bench harness (`harness = false`);
//! results land in `target/BENCH_table1.json`.

use sharc_runtime::{CachedChecked, Checked, Unchecked};
use sharc_testkit::Bench;
use sharc_workloads::benchmarks::{aget, dillo, fftw, pbzip2, pfscan, stunnel};

fn main() {
    let mut g = Bench::new("table1");
    g.sample_size(10);

    let pf = pfscan_params();
    g.bench("pfscan/orig", || pfscan::run_native::<Unchecked>(&pf));
    g.bench("pfscan/sharc", || pfscan::run_native::<Checked>(&pf));

    let ag = aget_params();
    g.bench("aget/orig", || aget::run_native::<Unchecked>(&ag));
    g.bench("aget/sharc", || aget::run_native::<Checked>(&ag));

    let pb = pbzip2_params();
    g.bench("pbzip2/orig", || pbzip2::run_native(&pb, false));
    g.bench("pbzip2/sharc", || pbzip2::run_native(&pb, true));

    let di = dillo_params();
    g.bench("dillo/orig", || dillo::run_native::<Unchecked>(&di));
    g.bench("dillo/sharc", || dillo::run_native::<Checked>(&di));

    let ff = fftw_params();
    g.bench("fftw/orig", || fftw::run_native(&ff, false));
    g.bench("fftw/sharc", || fftw::run_native(&ff, true));

    let st = stunnel_params();
    g.bench("stunnel/orig", || stunnel::run_native::<Unchecked>(&st));
    g.bench("stunnel/sharc", || {
        stunnel::run_native::<CachedChecked>(&st)
    });

    g.finish();
}

fn pfscan_params() -> pfscan::Params {
    pfscan::Params {
        fs: sharc_workloads::substrates::filesys::FsConfig {
            n_dirs: 2,
            files_per_dir: 4,
            file_size: 2048,
            ..Default::default()
        },
        workers: 2,
    }
}

fn aget_params() -> aget::Params {
    aget::Params {
        file_size: 32 * 1024,
        chunk: 4096,
        latency: std::time::Duration::from_micros(5),
        workers: 2,
    }
}

fn pbzip2_params() -> pbzip2::Params {
    pbzip2::Params {
        input_size: 64 * 1024,
        block: 16 * 1024,
        workers: 3,
    }
}

fn dillo_params() -> dillo::Params {
    dillo::Params {
        n_hosts: 64,
        n_requests: 64,
        workers: 3,
        latency: std::time::Duration::from_micros(5),
    }
}

fn fftw_params() -> fftw::Params {
    fftw::Params {
        n_transforms: 16,
        size: 512,
        workers: 2,
    }
}

fn stunnel_params() -> stunnel::Params {
    stunnel::Params {
        clients: 8,
        workers: 8,
        messages: 50,
        msg_len: 256,
    }
}

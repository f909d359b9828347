//! Criterion bench: folded CRC-32C, SIMD kernels, and arena emission.
//!
//! The CRC kernels are measured in the same run on the same buffer — the
//! seed's bitwise loop (the `bitstream::crc::baseline` oracle), the
//! portable polynomial folding kernel (`crc_words_folded`, four
//! independent lanes per 512-byte super-block), and whichever of the
//! SIMD kernels this host compiles and detects (`crc32q` hardware
//! CRC, PCLMULQDQ carryless folding) — so `BENCH_crc.json` carries
//! mutually consistent throughputs. The SIMD kernels' bar is ≥2× over
//! the portable fold (on hardware that has them). Payload fill
//! (portable and AVX2 splitmix) is measured the same way, as is the
//! writer's per-block fill-and-checksum: the best plain fill followed by
//! the dispatched CRC (two passes, the path of every host without the
//! fused kernel) against the fused AVX-512 fill + VPCLMULQDQ kernel (one
//! pass). The artifact
//! records which dispatch paths are active and the host's CPU count.
//!
//! The second half measures whole-stream emission: single-spec
//! `generate` vs buffer-reusing `emit_into`.
//! A counting `#[global_allocator]` asserts the steady-state cached path:
//! a warm repeated-spec `emit_arc_into` call is one rendered-stream cache
//! hit copied into a warm buffer, with no allocation.

use bitstream::arch;
use bitstream::crc::baseline::crc_words_bitwise;
use bitstream::crc::{crc_words, crc_words_folded};
use bitstream::{emit_arc_into, emit_into, generate, BitstreamSpec, EmitScratch};
use criterion::{criterion_group, Criterion, Throughput};
use fabric::database::xc5vlx110t;
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counts every heap allocation so the warm cached path can be asserted
/// allocation-free.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Pseudorandom configuration words (splitmix-style).
fn words(n: usize) -> Vec<u32> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as u32
        })
        .collect()
}

/// The planned placements of the three paper PRMs on the LX110T.
fn paper_specs() -> Vec<Arc<BitstreamSpec>> {
    let device = xc5vlx110t();
    synth::PaperPrm::ALL
        .iter()
        .map(|prm| {
            let plan = prcost::plan_prr(&prm.synth_report(device.family()), &device).unwrap();
            Arc::new(BitstreamSpec::from_plan(
                device.name(),
                prm.module_name(),
                plan.organization,
                &plan.window,
            ))
        })
        .collect()
}

fn bench_crc(c: &mut Criterion) {
    let buf = words(1 << 16);
    let mut g = c.benchmark_group("crc");
    g.throughput(Throughput::Bytes((buf.len() * 4) as u64));
    g.bench_function("bitwise_64kw", |b| {
        b.iter(|| crc_words_bitwise(black_box(&buf)))
    });
    g.bench_function("folded_64kw", |b| {
        b.iter(|| crc_words_folded(black_box(&buf)))
    });
    if arch::crc_words_hw(&buf).is_some() {
        g.bench_function("hw_crc32c_64kw", |b| {
            b.iter(|| arch::crc_words_hw(black_box(&buf)))
        });
    }
    if arch::crc_words_clmul(&buf).is_some() {
        g.bench_function("clmul_fold_64kw", |b| {
            b.iter(|| arch::crc_words_clmul(black_box(&buf)))
        });
    }
    g.bench_function("dispatched_64kw", |b| b.iter(|| crc_words(black_box(&buf))));
    g.finish();

    let mut fill_buf = vec![0u32; 1 << 16];
    let mut g = c.benchmark_group("payload_fill");
    g.throughput(Throughput::Bytes((fill_buf.len() * 4) as u64));
    g.bench_function("portable_64kw", |b| {
        b.iter(|| arch::fill_words_portable(black_box(0x5eed), &mut fill_buf))
    });
    if arch::fill_words_avx2(0x5eed, &mut fill_buf) {
        g.bench_function("avx2_64kw", |b| {
            b.iter(|| arch::fill_words_avx2(black_box(0x5eed), &mut fill_buf))
        });
    }
    g.bench_function("fill_crc_dispatched_64kw", |b| {
        b.iter(|| arch::fill_crc_words(black_box(0x5eed), &mut fill_buf, !0))
    });
    if arch::fill_crc_words_avx512(0x5eed, &mut fill_buf, !0).is_some() {
        g.bench_function("fill_crc_fused_64kw", |b| {
            b.iter(|| arch::fill_crc_words_avx512(black_box(0x5eed), &mut fill_buf, !0))
        });
    }
    g.finish();

    let specs = paper_specs();
    let spec = &specs[0];
    let mut g = c.benchmark_group("bitstream_generate");
    g.bench_function("generate_alloc", |b| {
        b.iter(|| generate(black_box(spec)).unwrap())
    });
    let mut out = Vec::new();
    g.bench_function("emit_into_reused", |b| {
        b.iter(|| emit_into(black_box(spec), &mut out).unwrap())
    });
    g.finish();
}

#[derive(Serialize)]
struct CrcBenchArtifact {
    words: usize,
    samples: u32,
    bitwise_min_ms: f64,
    folded_min_ms: f64,
    bitwise_mwords_per_sec: f64,
    folded_mwords_per_sec: f64,
    /// CRC path `Dispatch::detect` picked on this host.
    crc_dispatch: String,
    /// Payload-fill path `Dispatch::detect` picked on this host.
    fill_dispatch: String,
    /// `crc32q` hardware kernel (None when the host lacks SSE4.2/crc).
    hw_crc_min_ms: Option<f64>,
    hw_crc_mwords_per_sec: Option<f64>,
    /// PCLMULQDQ folding kernel (None off x86_64 or without pclmulqdq).
    clmul_min_ms: Option<f64>,
    clmul_mwords_per_sec: Option<f64>,
    /// Best SIMD CRC kernel over the portable fold (the PR-8 acceptance
    /// bar: ≥2 on SSE4.2 hardware). None when no SIMD kernel is present.
    simd_crc_speedup: Option<f64>,
    /// Whatever `crc_words` dispatches to, timed through the public API.
    dispatched_min_ms: f64,
    fill_portable_min_ms: f64,
    /// AVX2 fill (None without AVX2).
    fill_avx2_min_ms: Option<f64>,
    /// AVX2 fill over portable splitmix (None without AVX2).
    fill_speedup: Option<f64>,
    /// The best plain fill (AVX2, else portable), then `crc_words` over
    /// the filled buffer: the two-pass fill and checksum.
    fill_crc_two_pass_min_ms: f64,
    /// The fused AVX-512 fill + VPCLMULQDQ CRC kernel (None without
    /// every feature it needs).
    fill_crc_fused_min_ms: Option<f64>,
    /// Two-pass over fused (None without the fused kernel).
    fused_speedup: Option<f64>,
    generate_min_us: f64,
    emit_into_min_us: f64,
    generate_speedup: f64,
    /// Heap allocations in one warm repeated-spec `emit_arc_into` call.
    warm_emit_allocations: u64,
    /// `std::thread::available_parallelism` on the measuring host.
    host_cpus: usize,
}

/// Minimum wall time of `f` over `samples` runs (after one warm-up).
fn min_time(samples: u32, f: &mut dyn FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Direct measurement + JSON artifact (the criterion shim's printed
/// numbers are not machine-readable). The CRC buffer is 1 MiB — large
/// enough to amortize setup, small enough to stay cache-resident so the
/// measurement captures compute throughput, not DRAM bandwidth; on a
/// noisy shared box the minimum over samples is the least-biased
/// estimator of any implementation's true cost. All kernels run in the
/// same process on the same buffer, so the ratios are internally
/// consistent.
fn emit_artifact() {
    let buf = words(1 << 18);
    let samples = 20u32;

    let bitwise = min_time(samples, &mut || {
        black_box(crc_words_bitwise(&buf));
    });
    let folded = min_time(samples, &mut || {
        black_box(crc_words_folded(&buf));
    });
    let hw_crc = arch::crc_words_hw(&buf).map(|_| {
        min_time(samples, &mut || {
            black_box(arch::crc_words_hw(&buf));
        })
    });
    let clmul = arch::crc_words_clmul(&buf).map(|_| {
        min_time(samples, &mut || {
            black_box(arch::crc_words_clmul(&buf));
        })
    });
    let dispatched = min_time(samples, &mut || {
        black_box(crc_words(&buf));
    });
    let best_simd = match (hw_crc, clmul) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };

    let mut fill_buf = vec![0u32; buf.len()];
    let fill_portable = min_time(samples, &mut || {
        arch::fill_words_portable(0x5eed, &mut fill_buf);
        black_box(&fill_buf);
    });
    let fill_avx2 = arch::fill_words_avx2(0x5eed, &mut fill_buf).then(|| {
        min_time(samples, &mut || {
            arch::fill_words_avx2(0x5eed, &mut fill_buf);
            black_box(&fill_buf);
        })
    });
    let fill_crc_two_pass = min_time(samples, &mut || {
        if !arch::fill_words_avx2(0x5eed, &mut fill_buf) {
            arch::fill_words_portable(0x5eed, &mut fill_buf);
        }
        black_box(crc_words(&fill_buf));
    });
    let fill_crc_fused = arch::fill_crc_words_avx512(0x5eed, &mut fill_buf, !0).map(|_| {
        min_time(samples, &mut || {
            black_box(arch::fill_crc_words_avx512(0x5eed, &mut fill_buf, !0));
        })
    });

    let specs = paper_specs();
    let spec = &specs[0];
    let gen_samples = 200u32;
    let gen_alloc = min_time(gen_samples, &mut || {
        black_box(generate(spec).unwrap());
    });
    let mut out = Vec::new();
    let gen_reused = min_time(gen_samples, &mut || {
        emit_into(spec, &mut out).unwrap();
        black_box(&out);
    });

    // Steady-state allocation audit: after warm-up, a repeated-spec
    // `emit_arc_into` call is a rendered-stream cache hit (a refcount
    // bump) copied into a buffer that has already grown to the stream.
    let mut scratch = EmitScratch::new();
    let mut warm = Vec::new();
    for _ in 0..4 {
        emit_arc_into(&mut scratch, spec, &mut warm).unwrap();
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    emit_arc_into(&mut scratch, spec, &mut warm).unwrap();
    let warm_emit_allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    black_box(&warm);
    assert_eq!(
        warm_emit_allocations, 0,
        "warm cached emission into a warm buffer should not allocate"
    );

    let artifact = CrcBenchArtifact {
        words: buf.len(),
        samples,
        bitwise_min_ms: bitwise * 1e3,
        folded_min_ms: folded * 1e3,
        bitwise_mwords_per_sec: buf.len() as f64 / bitwise / 1e6,
        folded_mwords_per_sec: buf.len() as f64 / folded / 1e6,
        crc_dispatch: arch::active().crc.name().to_string(),
        fill_dispatch: arch::active().fill.name().to_string(),
        hw_crc_min_ms: hw_crc.map(|t| t * 1e3),
        hw_crc_mwords_per_sec: hw_crc.map(|t| buf.len() as f64 / t / 1e6),
        clmul_min_ms: clmul.map(|t| t * 1e3),
        clmul_mwords_per_sec: clmul.map(|t| buf.len() as f64 / t / 1e6),
        simd_crc_speedup: best_simd.map(|t| folded / t),
        dispatched_min_ms: dispatched * 1e3,
        fill_portable_min_ms: fill_portable * 1e3,
        fill_avx2_min_ms: fill_avx2.map(|t| t * 1e3),
        fill_speedup: fill_avx2.map(|t| fill_portable / t),
        fill_crc_two_pass_min_ms: fill_crc_two_pass * 1e3,
        fill_crc_fused_min_ms: fill_crc_fused.map(|t| t * 1e3),
        fused_speedup: fill_crc_fused.map(|t| fill_crc_two_pass / t),
        generate_min_us: gen_alloc * 1e6,
        emit_into_min_us: gen_reused * 1e6,
        generate_speedup: gen_alloc / gen_reused,
        warm_emit_allocations,
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    println!(
        "crc {} words: bitwise {:.2} ms, folded {:.3} ms ({:.0} Mwords/s)",
        buf.len(),
        artifact.bitwise_min_ms,
        artifact.folded_min_ms,
        artifact.folded_mwords_per_sec,
    );
    let opt = |ms: Option<f64>| ms.map_or_else(|| "n/a".to_string(), |v| format!("{v:.3} ms"));
    let ratio = |x: Option<f64>| x.map_or_else(|| "n/a".to_string(), |v| format!("{v:.1}x"));
    println!(
        "simd crc: hw-crc32c {}, clmul-fold {}, best {} over portable fold; \
         dispatch crc={} fill={}",
        opt(artifact.hw_crc_min_ms),
        opt(artifact.clmul_min_ms),
        ratio(artifact.simd_crc_speedup),
        artifact.crc_dispatch,
        artifact.fill_dispatch,
    );
    println!(
        "payload fill: portable {:.3} ms, avx2 {} ({}); \
         fill+crc: two-pass {:.3} ms, fused {} ({})",
        artifact.fill_portable_min_ms,
        opt(artifact.fill_avx2_min_ms),
        ratio(artifact.fill_speedup),
        artifact.fill_crc_two_pass_min_ms,
        opt(artifact.fill_crc_fused_min_ms),
        ratio(artifact.fused_speedup),
    );
    println!(
        "generate {:.1} us -> emit_into {:.1} us ({:.2}x); {} allocs/warm cached emit",
        artifact.generate_min_us,
        artifact.emit_into_min_us,
        artifact.generate_speedup,
        artifact.warm_emit_allocations,
    );
    bench::write_json("BENCH_crc", &artifact);
}

criterion_group!(benches, bench_crc);

// A custom main instead of criterion_main! so the artifact emitter runs
// after the criterion group.
fn main() {
    benches();
    emit_artifact();
}

//! Compiler pipeline benchmarks: lexing through image serialization for
//! each shipped driver (the toolchain a driver developer exercises), plus
//! the two install-path steps a Thing runs on every image it receives.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use upnp_dsl::{compile_source, drivers};

fn bench_compile(c: &mut Criterion) {
    let mut g = c.benchmark_group("dsl_compiler");
    for (name, src) in [
        ("tmp36", drivers::TMP36),
        ("hih4030", drivers::HIH4030),
        ("id20la", drivers::ID20LA),
        ("bmp180", drivers::BMP180),
    ] {
        g.bench_with_input(BenchmarkId::new("compile", name), &src, |b, src| {
            b.iter(|| black_box(compile_source(src, 1).expect("compiles")))
        });
    }
    // The install path: decode the wire format, then verify the image.
    let image = compile_source(drivers::BMP180, 1).unwrap();
    let bytes = image.to_bytes();
    g.bench_function("image_decode_bmp180", |b| {
        b.iter(|| black_box(upnp_dsl::image::DriverImage::from_bytes(&bytes).unwrap()))
    });
    g.bench_function("verify_bmp180", |b| {
        b.iter(|| upnp_dsl::verify(black_box(&image)).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_compile);
criterion_main!(benches);

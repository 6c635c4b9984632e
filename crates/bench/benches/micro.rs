//! Micro-benchmarks of the hot paths: hashing, slot encoding, report
//! crafting (switch) and frame processing (NIC), plus the end-to-end
//! fat-tree flow.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use dta_core::hash::{AddressMapping, CrcMapping, Mix64Mapping};
use dta_rdma::verbs::RemoteEndpoint;
use dta_switch::egress::{DartEgress, EgressConfig};
use dta_switch::SwitchIdentity;
use dta_wire::crc;
use dta_wire::dart::{ChecksumWidth, SlotLayout};
use dta_wire::roce::{self, Psn};
use dta_wire::{ethernet, ipv4, udp};

fn bench_hashing(c: &mut Criterion) {
    let key = [0xABu8; 13];
    let crc = CrcMapping::new();
    let mix = Mix64Mapping::new(7);
    let mut group = c.benchmark_group("micro/hash");
    group.throughput(Throughput::Elements(1));
    group.bench_function("crc_slot", |b| {
        b.iter(|| black_box(crc.slot(black_box(&key), 1, 1 << 20)))
    });
    group.bench_function("mix64_slot", |b| {
        b.iter(|| black_box(mix.slot(black_box(&key), 1, 1 << 20)))
    });
    group.bench_function("crc_checksum", |b| {
        b.iter(|| black_box(crc.key_checksum(black_box(&key))))
    });
    group.finish();
}

fn bench_icrc(c: &mut Criterion) {
    let payload = [0x5Au8; 88]; // a DART report frame's worth
    let mut group = c.benchmark_group("micro/crc32");
    group.throughput(Throughput::Bytes(88));
    group.bench_function("crc32_88B", |b| {
        b.iter(|| black_box(crc::IEEE.checksum(black_box(&payload))))
    });

    // The full per-frame iCRC, called the way the deparser and the NIC
    // call it, on a real Key-Write report frame.
    let frame = keywrite_egress()
        .craft_report(&[0xABu8; 13], &[7u8; 20])
        .unwrap()
        .frame;
    let ip = ethernet::HEADER_LEN;
    let udp_start = ip + ipv4::HEADER_LEN;
    let ib = udp_start + udp::HEADER_LEN;
    let ib_end = frame.len() - roce::ICRC_LEN;
    group.throughput(Throughput::Bytes((ib_end - ip) as u64));
    group.bench_function("icrc_frame", |b| {
        b.iter(|| {
            black_box(roce::icrc::compute(
                black_box(&frame[ip..udp_start]),
                black_box(&frame[udp_start..ib]),
                black_box(&frame[ib..ib_end]),
            ))
        })
    });
    group.finish();
}

fn bench_slot_codec(c: &mut Criterion) {
    let layout = SlotLayout {
        checksum: ChecksumWidth::B32,
        value_len: 20,
    };
    let value = [7u8; 20];
    let mut slot = [0u8; 24];
    let mut group = c.benchmark_group("micro/slot");
    group.throughput(Throughput::Elements(1));
    group.bench_function("encode", |b| {
        b.iter(|| layout.encode(black_box(0xDEAD_BEEF), black_box(&value), &mut slot))
    });
    group.bench_function("decode", |b| {
        b.iter(|| black_box(layout.decode(black_box(&slot))))
    });
    group.finish();
}

/// A Key-Write egress (N = 2, 64k slots) with one collector installed.
fn keywrite_egress() -> DartEgress {
    let mut egress = DartEgress::new(
        SwitchIdentity::derived(1),
        EgressConfig {
            copies: 2,
            slots: 1 << 16,
            layout: SlotLayout {
                checksum: ChecksumWidth::B32,
                value_len: 20,
            },
            collectors: 1,
            udp_src_port: 49152,
            primitive: dta_core::PrimitiveSpec::KeyWrite,
        },
        7,
    )
    .unwrap();
    egress
        .install_collector(
            0,
            RemoteEndpoint {
                mac: ethernet::Address([2, 0, 0, 0, 0, 2]),
                ip: ipv4::Address([10, 0, 0, 2]),
                qpn: 0x100,
                rkey: 0x1000,
                base_va: 0,
                region_len: 24 << 16,
                start_psn: Psn::new(0),
            },
        )
        .unwrap();
    egress
}

fn bench_report_crafting(c: &mut Criterion) {
    let mut egress = keywrite_egress();
    let key = [0xABu8; 13];
    let value = [7u8; 20];
    let mut group = c.benchmark_group("micro/switch");
    group.throughput(Throughput::Elements(1));
    group.bench_function("craft_report", |b| {
        b.iter(|| {
            black_box(
                egress
                    .craft_report(black_box(&key), black_box(&value))
                    .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_e2e_flow(c: &mut Criterion) {
    use dta_topology::sim::{FatTreeSim, SimConfig};
    let mut group = c.benchmark_group("micro/e2e");
    group.sample_size(20);
    group.bench_function("one_flow_full_stack", |b| {
        let mut sim = FatTreeSim::new(SimConfig {
            slots: 1 << 16,
            ..SimConfig::default()
        })
        .unwrap();
        b.iter(|| black_box(sim.run_flow().unwrap()));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hashing,
    bench_icrc,
    bench_slot_codec,
    bench_report_crafting,
    bench_e2e_flow
);
criterion_main!(benches);

//! Host memory per Thing: a 1,000-Thing star fleet's live heap, counted
//! by a global allocator, must grow with what is plugged, not with what
//! could be.
//!
//! The bounds pin the per-Thing layout: lazily built driver slots,
//! boxed peripheral boards, one shared catalog and driver image, and
//! exact-size maps. Run with `-- --nocapture` to print the measured
//! figures that `docs/performance.md` reports.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use upnp_core::fleet::{Fleet, FleetConfig};
use upnp_core::Thing;

/// Bytes currently allocated and not yet freed, process-wide.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const THINGS: usize = 1_000;

/// Live heap per Thing once the fleet is built.
const BUILT_MAX: isize = 2_400;
/// Live heap per Thing after every Thing discovered one peripheral.
const DISCOVERED_MAX: isize = 5_500;
/// The inline size of one Thing, before its heap.
const THING_MAX: usize = 1_400;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

#[test]
fn a_thing_holds_only_what_is_plugged() {
    let before = live();
    let mut fleet = Fleet::build(FleetConfig::new(THINGS));
    let built = (live() - before) / THINGS as isize;
    let wave = fleet.discovery_wave();
    assert_eq!(wave.completed, THINGS, "every driver must install");
    drop(wave);
    let discovered = (live() - before) / THINGS as isize;
    let size = std::mem::size_of::<Thing>();
    println!(
        "{THINGS}-Thing star: {built} B/Thing built, {discovered} B/Thing after discovery, \
         size_of::<Thing>() = {size} B"
    );
    assert!(built <= BUILT_MAX, "{built} B per built Thing");
    assert!(
        discovered <= DISCOVERED_MAX,
        "{discovered} B per discovered Thing"
    );
    assert!(size <= THING_MAX, "size_of::<Thing>() is {size} B");
}

//! Host memory per Thing: a 1,000-Thing star fleet's live heap, counted
//! by a global allocator, must grow with what is plugged, not with what
//! could be.
//!
//! The bounds pin the per-Thing layout: lazily built driver slots,
//! boxed peripheral boards, one shared catalog and driver image,
//! exact-size maps, a board that stores no waveform, advertisements held
//! in wire form and queues that give back what a burst grew. Run with
//! `-- --nocapture` to print the measured figures that
//! `docs/performance.md` reports.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Mutex;

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
const BUILT_MAX: isize = 2_352;
/// Live heap per Thing after every Thing discovered one peripheral.
const DISCOVERED_MAX: isize = 4_096;
/// The inline size of one Thing, before its heap.
const THING_MAX: usize = 1_352;
/// Live heap per Thing after a flash crowd behind two edge caches.
const FLASH_MAX: isize = 4_096;

/// The counter is process-wide, so the cases take turns.
static TURN: Mutex<()> = Mutex::new(());

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

#[test]
fn a_thing_holds_only_what_is_plugged() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
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

#[test]
fn a_flash_crowd_leaves_each_thing_within_its_pin() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let before = live();
    let mut fleet = Fleet::build(FleetConfig::new(THINGS).with_caches(2));
    let crowd = fleet.flash_crowd();
    assert_eq!(crowd.completed, THINGS, "every driver must install");
    drop(crowd);
    let flash = (live() - before) / THINGS as isize;
    println!("{THINGS}-Thing flash crowd behind 2 caches: {flash} B/Thing");
    assert!(flash <= FLASH_MAX, "{flash} B per Thing after the crowd");
}

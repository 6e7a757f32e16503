//! The native-threads runtime substrate in action: a producer and a
//! consumer exchange buffer ownership through a reference-counted
//! slot, with SharC's shadow memory checking the dynamic-mode queue
//! state and `oneref` sharing casts validating each hand-off —
//! running on real `std::thread` workers.
//!
//! ```text
//! cargo run --example producer_consumer
//! ```

use sharc_runtime::{
    sharing_cast, Arena, LockId, LockRegistry, LpRc, ObjId, RcScheme, ThreadCtx, ThreadId,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const ITEMS: usize = 10_000;
const BUFFER_WORDS: usize = 32;

fn main() {
    // Payload arena: item buffers, 16-byte-granule shadow memory.
    let arena: Arc<Arena> = Arc::new(Arena::for_threads(ITEMS.min(64) * BUFFER_WORDS, 2));
    // One reference-counted pointer slot: the hand-off cell.
    let rc = Arc::new(LpRc::new(1, 64, 2));
    let locks = Arc::new(LockRegistry::new(1));
    let slot_lock = LockId(0);
    let done = Arc::new(AtomicBool::new(false));

    let consumer = {
        let arena = Arc::clone(&arena);
        let rc = Arc::clone(&rc);
        let locks = Arc::clone(&locks);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut ctx = ThreadCtx::new(ThreadId(2));
            let mut consumed = 0u64;
            let mut casts_ok = 0u64;
            loop {
                locks.lock(&mut ctx, slot_lock);
                ctx.assert_held(slot_lock).expect("lock log");
                let taken = sharing_cast(&*rc, 1, 0);
                locks.unlock(&mut ctx, slot_lock);
                match taken {
                    Ok(Some(obj)) => {
                        casts_ok += 1;
                        // We own the buffer now: private-mode reads.
                        let base = (obj.0 as usize % 64) * BUFFER_WORDS;
                        let mut sum = 0u64;
                        for i in 0..BUFFER_WORDS {
                            sum += arena.read_unchecked(base + i);
                        }
                        consumed += sum;
                        // Release the region's shadow state for reuse.
                        arena.clear_range(base, BUFFER_WORDS);
                    }
                    Ok(None) => {
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    Err(e) => panic!("hand-off violated ownership: {e}"),
                }
            }
            arena.thread_exit(&mut ctx);
            (consumed, casts_ok, ctx.conflicts)
        })
    };

    // Producer: fill a buffer privately, publish it through the slot.
    let mut ctx = ThreadCtx::new(ThreadId(1));
    let mut produced = 0u64;
    for item in 0..ITEMS {
        let obj = ObjId((item % 64) as u32);
        let base = (item % 64) * BUFFER_WORDS;
        for i in 0..BUFFER_WORDS {
            arena.write_unchecked(base + i, (item + i) as u64);
            produced += (item + i) as u64;
        }
        // Wait until the slot is free, then publish.
        loop {
            locks.lock(&mut ctx, slot_lock);
            let free = rc.read_slot(0).is_none();
            if free {
                rc.store(0, 0, Some(obj));
                locks.unlock(&mut ctx, slot_lock);
                break;
            }
            locks.unlock(&mut ctx, slot_lock);
            std::thread::yield_now();
        }
    }
    // Wait for the consumer to drain the final item before signaling.
    while rc.read_slot(0).is_some() {
        std::thread::yield_now();
    }
    done.store(true, Ordering::Release);

    let (consumed, casts_ok, conflicts) = consumer.join().expect("consumer");
    println!("items produced      : {ITEMS}");
    println!("sharing casts passed: {casts_ok}");
    println!("payload checksum    : produced {produced} / consumed {consumed}");
    println!("conflicts observed  : {conflicts}");
    println!(
        "shadow memory       : {} bytes over {} payload bytes ({:.1}%)",
        arena.shadow_bytes(),
        arena.payload_bytes(),
        arena.shadow_bytes() as f64 / arena.payload_bytes() as f64 * 100.0
    );
    assert_eq!(produced, consumed, "every byte transferred exactly once");
    assert_eq!(casts_ok as usize, ITEMS);
}

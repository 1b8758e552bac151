//! A [`BlastParser`] push allocates nothing. The parser verifies payload
//! bytes where they lie and keeps its accounting in running totals, so
//! once a channel is open the measurer's verify path costs the scan and
//! nothing else: no per-push buffer, event list or copy.
//!
//! A counting global allocator tallies the allocations each thread
//! makes; the test reads its own thread's tally around the pushes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use flashflow_proto::blast::{
    binding_nonce, frame_tag, secret_channel_key, BlastCounters, BlastParser, BlastPattern,
    DataChannelHello, BLAST_CHUNK, BLAST_FRAME_TAG, BLAST_HEADER_LEN,
};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocations.
struct Counting;

// SAFETY: every call goes to the system allocator unchanged; the
// tally is a thread-local `Cell` with a const initialiser, which
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: `GlobalAlloc`'s contract, passed on to `System` as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's layout, forwarded as is.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: as for `alloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread made while `f` ran.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Frame `seq` of `len` keystream bytes, tagged under `key`.
fn frame(key: u64, nonce: u64, seq: u64, len: usize) -> Vec<u8> {
    let mut frame = vec![BLAST_FRAME_TAG];
    frame.extend_from_slice(&seq.to_be_bytes());
    frame.extend_from_slice(&(len as u32).to_be_bytes());
    frame.extend_from_slice(&frame_tag(key, nonce, seq, len as u32).to_be_bytes());
    let start = frame.len();
    frame.resize(start + len, 0);
    BlastPattern::new(nonce).fill(seq, &mut frame[start..]);
    frame
}

#[test]
fn a_push_allocates_nothing() {
    const SECRET: u64 = 0xA110_C000_5EC2_0001;
    let (nonce, key) = (binding_nonce(SECRET), secret_channel_key(SECRET));
    let len = BLAST_CHUNK;
    let warm_up =
        [DataChannelHello { nonce, channel: 0 }.encode().to_vec(), frame(key, nonce, 0, len)]
            .concat();
    let clean = frame(key, nonce, 1, len);
    let mut corrupt = frame(key, nonce, 2, len);
    corrupt[BLAST_HEADER_LEN..BLAST_HEADER_LEN + 100].iter_mut().for_each(|b| *b ^= 0x5A);
    let forged = frame(key ^ 1, nonce, 3, len);
    let replayed = clean.clone();
    let split = frame(key, nonce, 4, len);
    // Cut inside the header, then twice inside the payload.
    let cuts = [7, BLAST_HEADER_LEN + 3, BLAST_HEADER_LEN + len / 2];
    let mut pushes: Vec<&[u8]> = vec![&clean, &corrupt, &forged, &replayed];
    let mut from = 0;
    for to in cuts.into_iter().chain([split.len()]) {
        pushes.push(&split[from..to]);
        from = to;
    }

    for counters in [None, Some(BlastCounters::default())] {
        let mut parser = BlastParser::new().with_key(key);
        if let Some(counters) = counters {
            parser = parser.with_counters(counters);
        }
        parser.push(&warm_up).expect("clean warm-up");
        let allocations = allocations_during(|| {
            for bytes in &pushes {
                parser.push(bytes).expect("framing intact");
            }
        });
        assert_eq!(allocations, 0, "{} pushes allocated", pushes.len());
        // Every kind of frame was met, so the pushes above ran each path.
        let payload = len as u64;
        assert_eq!(parser.received_total(), 4 * payload, "warm-up, clean, corrupt and split");
        assert_eq!(parser.corrupt_total(), 100);
        assert_eq!((parser.forged_total(), parser.replayed_total()), (payload, payload));
    }
}

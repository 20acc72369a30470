//! Malformed byte sequences must fail before the decoder allocates.
//!
//! A counting global allocator (this test binary only) counts the
//! allocations made on the calling thread, so tests running in parallel do
//! not disturb each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use serde::{Deserialize, Error};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local, which never allocates itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Decodes `bytes` as a `Vec<u8>`, returning the result and the number of
/// allocations the decode made.
fn decode_counting(bytes: &[u8]) -> (Result<Vec<u8>, Error>, u64) {
    let mut input = bytes;
    let before = ALLOCS.with(Cell::get);
    let result = Vec::<u8>::deserialize(&mut input);
    (result, ALLOCS.with(Cell::get) - before)
}

#[test]
fn max_length_byte_vector_is_eof_without_allocating() {
    let mut bytes = u32::MAX.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[1, 2, 3]);
    let (result, allocs) = decode_counting(&bytes);
    assert_eq!(result, Err(Error::UnexpectedEof));
    assert_eq!(allocs, 0, "a hostile length must not reserve memory");
}

#[test]
fn truncated_byte_vector_is_eof_without_allocating() {
    // Claims 1024 bytes, carries 100; and a length prefix cut short.
    let mut bytes = 1024u32.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[7; 100]);
    for input in [&bytes[..], &bytes[..2]] {
        let (result, allocs) = decode_counting(input);
        assert_eq!(result, Err(Error::UnexpectedEof));
        assert_eq!(allocs, 0, "truncated input must not reserve memory");
    }
}

#[test]
fn well_formed_byte_vector_decodes_in_one_allocation() {
    let mut bytes = 1024u32.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[7; 1024]);
    let (result, allocs) = decode_counting(&bytes);
    assert_eq!(result, Ok(vec![7; 1024]));
    assert_eq!(allocs, 1, "one copy of the payload, no regrowth");
}

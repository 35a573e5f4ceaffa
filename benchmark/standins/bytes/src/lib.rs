//! Std-only stand-in for the part of `bytes` 1 that
//! `protocols::packet` uses: `Bytes`, `BytesMut`, and the big-endian
//! `Buf`/`BufMut` accessors. Both buffer types are plain `Vec<u8>`
//! wrappers (ROADMAP item 1's replacement), so `Bytes::clone` copies
//! instead of bumping a reference count.

use std::ops::Deref;

/// An immutable byte buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bytes(Vec<u8>);

impl Bytes {
    /// The empty buffer.
    pub const fn new() -> Bytes {
        Bytes(Vec::new())
    }

    /// A buffer holding a copy of `data`.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes(data.to_vec())
    }

    /// A buffer holding a copy of a static slice.
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes(data.to_vec())
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

/// A growable byte buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    /// An empty buffer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> BytesMut {
        BytesMut(Vec::with_capacity(capacity))
    }

    /// Convert into an immutable [`Bytes`] without copying.
    pub fn freeze(self) -> Bytes {
        Bytes(self.0)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

/// Read big-endian integers off the front of a buffer.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Skip `cnt` bytes. Panics if fewer remain.
    fn advance(&mut self, cnt: usize);

    /// Copy the next `N` bytes out and skip them. Panics if fewer remain.
    fn take_array<const N: usize>(&mut self) -> [u8; N] {
        let bytes: [u8; N] = self.chunk()[..N].try_into().expect("N-byte prefix");
        self.advance(N);
        bytes
    }

    /// The next byte.
    fn get_u8(&mut self) -> u8 {
        self.take_array::<1>()[0]
    }

    /// The next big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        u16::from_be_bytes(self.take_array())
    }

    /// The next big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take_array())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Append big-endian integers to a buffer.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, n: u8) {
        self.put_slice(&[n]);
    }

    /// Append a big-endian `u16`.
    fn put_u16(&mut self, n: u16) {
        self.put_slice(&n.to_be_bytes());
    }

    /// Append a big-endian `u32`.
    fn put_u32(&mut self, n: u32) {
        self.put_slice(&n.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}

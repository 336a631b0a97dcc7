//! Length-checked little-endian wire encoding for the POD payloads the
//! collectives move.
//!
//! Two layers:
//!
//! * [`WireElem`] — a fixed-size element (`u32`/`u64`/`i64`/`f64`/... and small
//!   tuples of them) that knows how to append itself to a byte buffer and read
//!   itself back. Every buffer a collective ships (part updates `(u64, i32)`,
//!   arcs `(u64, u64)`, spmv folds `(u64, f64)`, ghost-value replies, reduce
//!   contributions) is a slice of `WireElem`s.
//! * [`WireMessage`] — a complete frame payload: either one scalar/tuple
//!   element (rooted collectives, `allgather`) or a `Vec` of elements
//!   (`allgatherv`, `alltoallv`, reduce contributions), or a `Tallied` pair
//!   of sections (`alltoallv_sum`: a `Vec` of elements plus the `i64` tally the
//!   round also sums). Decoding validates the byte length against the element
//!   size, so a truncated or corrupt frame is a typed [`CodecError`] instead of
//!   a garbage value.
//!
//! Everything is little-endian on the wire regardless of host order. The
//! in-process backend never serialises (payloads move as typed boxes);
//! [`WireMessage::wire_size`] is what its byte accounting is estimated from,
//! so both backends report comparable volumes.

use std::fmt;

/// Why a frame payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// A scalar/tuple message had the wrong byte length.
    BadLength {
        /// Bytes the type requires.
        expected: usize,
        /// Bytes the frame carried.
        got: usize,
    },
    /// A vector message's byte length is not a multiple of the element size —
    /// the frame was truncated or the peers disagree on the element type.
    Truncated {
        /// Fixed element size of the expected type.
        elem_size: usize,
        /// Bytes the frame carried.
        got: usize,
    },
    /// A sectioned frame ends before its count prefix, or before the section
    /// that prefix announces.
    Short {
        /// Bytes the prefix (or the section it announces) requires.
        needed: usize,
        /// Bytes the frame carried.
        got: usize,
    },
    /// A sectioned frame's count prefix announces more bytes than any frame
    /// can hold.
    CountOverflow {
        /// The announced element count.
        count: u64,
        /// Fixed element size of the expected type.
        elem_size: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadLength { expected, got } => {
                write!(
                    f,
                    "frame payload of {got} bytes, expected exactly {expected}"
                )
            }
            CodecError::Truncated { elem_size, got } => {
                write!(
                    f,
                    "frame payload of {got} bytes is not a multiple of the {elem_size}-byte element"
                )
            }
            CodecError::Short { needed, got } => {
                write!(
                    f,
                    "frame payload of {got} bytes, its sections need {needed}"
                )
            }
            CodecError::CountOverflow { count, elem_size } => {
                write!(
                    f,
                    "frame announces {count} elements of {elem_size} bytes, past any frame size"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// A fixed-size plain-old-data element with a defined little-endian layout.
///
/// Implemented for the integer/float scalars the algorithms exchange and for
/// 2- and 3-tuples of elements (covering the `(vertex, part)`, `(src, dst)`
/// and `(row, value)` records of the partitioner, graph and spmv layers).
pub trait WireElem: Copy + Send + 'static {
    /// Encoded size in bytes. Constant per type; frames are validated against it.
    const SIZE: usize;

    /// Append the little-endian encoding of `self` to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// Read one element starting at `bytes[at..]`. The caller has already
    /// validated that at least [`Self::SIZE`] bytes are available.
    fn get(bytes: &[u8], at: usize) -> Self;
}

macro_rules! scalar_wire_elem {
    ($($t:ty),*) => {$(
        impl WireElem for $t {
            const SIZE: usize = std::mem::size_of::<$t>();

            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn get(bytes: &[u8], at: usize) -> Self {
                let mut buf = [0u8; std::mem::size_of::<$t>()];
                buf.copy_from_slice(&bytes[at..at + Self::SIZE]);
                <$t>::from_le_bytes(buf)
            }
        }
    )*};
}

scalar_wire_elem!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl<A: WireElem, B: WireElem> WireElem for (A, B) {
    const SIZE: usize = A::SIZE + B::SIZE;

    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }

    #[inline]
    fn get(bytes: &[u8], at: usize) -> Self {
        (A::get(bytes, at), B::get(bytes, at + A::SIZE))
    }
}

impl<A: WireElem, B: WireElem, C: WireElem> WireElem for (A, B, C) {
    const SIZE: usize = A::SIZE + B::SIZE + C::SIZE;

    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
    }

    #[inline]
    fn get(bytes: &[u8], at: usize) -> Self {
        (
            A::get(bytes, at),
            B::get(bytes, at + A::SIZE),
            C::get(bytes, at + A::SIZE + B::SIZE),
        )
    }
}

/// A complete frame payload: encode to bytes, decode with length validation.
pub trait WireMessage: Send + 'static + Sized {
    /// Exact encoded payload size in bytes (excluding the transport's frame
    /// header). Also the in-process backend's byte-accounting estimate.
    fn wire_size(&self) -> usize;

    /// Append the encoding of `self` to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Encode into a fresh buffer.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_size());
        self.encode_into(&mut out);
        out
    }

    /// Decode a payload, validating the byte length.
    fn decode(bytes: &[u8]) -> Result<Self, CodecError>;
}

macro_rules! scalar_wire_message {
    ($($t:ty),*) => {$(
        impl WireMessage for $t {
            fn wire_size(&self) -> usize {
                <$t as WireElem>::SIZE
            }

            fn encode_into(&self, out: &mut Vec<u8>) {
                self.put(out);
            }

            fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
                if bytes.len() != <$t as WireElem>::SIZE {
                    return Err(CodecError::BadLength {
                        expected: <$t as WireElem>::SIZE,
                        got: bytes.len(),
                    });
                }
                Ok(<$t as WireElem>::get(bytes, 0))
            }
        }
    )*};
}

scalar_wire_message!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl<A: WireElem, B: WireElem> WireMessage for (A, B) {
    fn wire_size(&self) -> usize {
        Self::SIZE
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.put(out);
    }

    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        if bytes.len() != Self::SIZE {
            return Err(CodecError::BadLength {
                expected: Self::SIZE,
                got: bytes.len(),
            });
        }
        Ok(Self::get(bytes, 0))
    }
}

impl<A: WireElem, B: WireElem, C: WireElem> WireMessage for (A, B, C) {
    fn wire_size(&self) -> usize {
        Self::SIZE
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.put(out);
    }

    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        if bytes.len() != Self::SIZE {
            return Err(CodecError::BadLength {
                expected: Self::SIZE,
                got: bytes.len(),
            });
        }
        Ok(Self::get(bytes, 0))
    }
}

impl<E: WireElem> WireMessage for Vec<E> {
    fn wire_size(&self) -> usize {
        self.len() * E::SIZE
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.wire_size());
        for e in self {
            e.put(out);
        }
    }

    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        if E::SIZE == 0 || !bytes.len().is_multiple_of(E::SIZE) {
            return Err(CodecError::Truncated {
                elem_size: E::SIZE,
                got: bytes.len(),
            });
        }
        let n = bytes.len() / E::SIZE;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(E::get(bytes, i * E::SIZE));
        }
        Ok(out)
    }
}

/// A frame of two sections: `items`, then the `tally` a collective sums alongside
/// them. On the wire: the item count as a little-endian `u64`, the items, then the
/// tally filling the rest of the frame, eight bytes per entry.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Tallied<E> {
    /// The personalised section.
    pub(crate) items: Vec<E>,
    /// The section every peer receives the same length of.
    pub(crate) tally: Vec<i64>,
}

/// Bytes of the item count that opens a [`Tallied`] frame.
const COUNT_BYTES: usize = 8;

impl<E: WireElem> WireMessage for Tallied<E> {
    fn wire_size(&self) -> usize {
        COUNT_BYTES + self.items.wire_size() + self.tally.wire_size()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.wire_size());
        (self.items.len() as u64).put(out);
        self.items.encode_into(out);
        self.tally.encode_into(out);
    }

    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let got = bytes.len();
        if got < COUNT_BYTES {
            return Err(CodecError::Short {
                needed: COUNT_BYTES,
                got,
            });
        }
        let count = u64::get(bytes, 0);
        let overflow = CodecError::CountOverflow {
            count,
            elem_size: E::SIZE,
        };
        let items_end = usize::try_from(count)
            .ok()
            .and_then(|c| c.checked_mul(E::SIZE))
            .and_then(|b| b.checked_add(COUNT_BYTES))
            .ok_or(overflow)?;
        if items_end > got {
            return Err(CodecError::Short {
                needed: items_end,
                got,
            });
        }
        let items = Vec::<E>::decode(&bytes[COUNT_BYTES..items_end])?;
        let tally = Vec::<i64>::decode(&bytes[items_end..])?;
        Ok(Tallied { items, tally })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<M: WireMessage + PartialEq + std::fmt::Debug + Clone>(msg: M) {
        let bytes = msg.encode();
        assert_eq!(bytes.len(), msg.wire_size());
        let back = M::decode(&bytes).expect("round trip decodes");
        assert_eq!(back, msg);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(0u8);
        round_trip(u16::MAX);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX - 7);
        round_trip(-1i32);
        round_trip(i64::MIN);
        round_trip(1.5f32);
        round_trip(-0.125f64);
    }

    #[test]
    fn tuples_round_trip() {
        round_trip((42u64, -3i32));
        round_trip((7u64, 9u64));
        round_trip((1u64, 0.5f64));
        round_trip((1u32, 2u64, -3i64));
    }

    #[test]
    fn vectors_round_trip_including_empty() {
        round_trip(Vec::<u64>::new());
        round_trip(Vec::<(u64, i32)>::new());
        round_trip(vec![1u64, 2, 3, u64::MAX]);
        round_trip(vec![(5u64, -1i32), (6, 7)]);
        round_trip(vec![(1u64, f64::MAX), (2, f64::MIN_POSITIVE)]);
        let big: Vec<u64> = (0..10_000).collect();
        round_trip(big);
    }

    #[test]
    fn truncated_vector_frames_are_rejected() {
        let mut bytes = vec![9u64, 10, 11].encode();
        bytes.pop();
        match Vec::<u64>::decode(&bytes) {
            Err(CodecError::Truncated { elem_size: 8, got }) => assert_eq!(got, 23),
            other => panic!("expected Truncated, got {other:?}"),
        }
        // A tuple vector cut mid-element is equally rejected.
        let mut bytes = vec![(1u64, 2i32)].encode();
        bytes.truncate(10);
        assert!(Vec::<(u64, i32)>::decode(&bytes).is_err());
    }

    #[test]
    fn scalar_frames_reject_wrong_lengths() {
        assert_eq!(
            u64::decode(&[0; 7]),
            Err(CodecError::BadLength {
                expected: 8,
                got: 7
            })
        );
        assert!(u32::decode(&[0; 8]).is_err());
        assert!(<(u64, i32)>::decode(&[0; 11]).is_err());
    }

    #[test]
    fn tallied_frames_round_trip_including_empty_sections() {
        let tallied = |items: Vec<(u32, i32)>, tally: Vec<i64>| Tallied { items, tally };
        round_trip(tallied(Vec::new(), Vec::new()));
        round_trip(tallied(Vec::new(), vec![-3, i64::MAX]));
        round_trip(tallied(vec![(7, -1), (u32::MAX, 2)], Vec::new()));
        round_trip(tallied(vec![(1, 2)], vec![i64::MIN, 0, 5]));
        round_trip(Tallied {
            items: vec![1u8, 2, 3],
            tally: vec![9],
        });
        // The count prefix is what separates the sections.
        let bytes = tallied(vec![(1, 2)], vec![3]).encode();
        assert_eq!(&bytes[..8], &1u64.to_le_bytes());
        assert_eq!(bytes.len(), 8 + 8 + 8);
    }

    #[test]
    fn hostile_tallied_frames_are_typed_errors() {
        type Frame = Tallied<(u32, i32)>;
        let with_count = |count: u64, rest: &[u8]| {
            let mut bytes = count.to_le_bytes().to_vec();
            bytes.extend_from_slice(rest);
            bytes
        };
        // A count prefix cut short, down to an empty frame.
        for len in 0..8 {
            assert_eq!(
                Frame::decode(&[0xFF; 8][..len]),
                Err(CodecError::Short {
                    needed: 8,
                    got: len
                })
            );
        }
        // A count whose byte length does not fit in `usize`.
        for count in [u64::MAX, u64::MAX / 8 + 1, u64::MAX / 4] {
            assert_eq!(
                Frame::decode(&with_count(count, &[0; 16])),
                Err(CodecError::CountOverflow {
                    count,
                    elem_size: 8
                })
            );
        }
        // A count past the end of the payload.
        assert_eq!(
            Frame::decode(&with_count(3, &[0; 16])),
            Err(CodecError::Short {
                needed: 32,
                got: 24
            })
        );
        assert_eq!(
            Frame::decode(&with_count(1, &[])),
            Err(CodecError::Short { needed: 16, got: 8 })
        );
        // A tally tail that is not whole `i64`s.
        for tail in 1..8 {
            assert_eq!(
                Frame::decode(&with_count(1, &vec![0; 8 + tail])),
                Err(CodecError::Truncated {
                    elem_size: 8,
                    got: tail
                })
            );
        }
        // Arbitrary bytes never panic.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for len in 0..200 {
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state as u8
                })
                .collect();
            let _ = Frame::decode(&bytes);
            let _ = Frame::decode(&with_count(len as u64 % 5, &bytes));
        }
    }

    #[test]
    fn encoding_is_little_endian_and_stable() {
        assert_eq!(0x0102_0304u32.encode(), vec![0x04, 0x03, 0x02, 0x01]);
        assert_eq!((1u64, -1i32).encode().len(), 12);
    }
}

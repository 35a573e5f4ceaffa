//! Frames and wire encoding.
//!
//! The PHY layer of Section V-A.1: a length-prefixed frame carrying a MAC
//! header (sender, receiver, DSN), the CTP data header (origin, seqno,
//! THL), a payload, and a CRC-16 the receiver checks before hardware-acking.
//! The simulator mostly passes structs around, but the wire codec is real —
//! it is what a deployment would put on air, and the PHY tests exercise
//! corruption → CRC rejection, the silent-discard path of the paper.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use eventlog::PacketId;
use netsim::NodeId;

/// A CTP data packet as it travels hop to hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataPacket {
    /// Global identity (origin + seqno).
    pub id: PacketId,
    /// Time-has-lived: incremented at each accepted hop. CTP uses THL in
    /// its duplicate signature; we additionally bound it to guarantee loop
    /// termination.
    pub thl: u8,
}

impl DataPacket {
    /// A freshly generated packet.
    pub fn new(id: PacketId) -> Self {
        DataPacket { id, thl: 0 }
    }

    /// The copy a forwarder re-sends (THL bumped).
    pub fn forwarded(self) -> Self {
        DataPacket {
            id: self.id,
            thl: self.thl.saturating_add(1),
        }
    }
}

/// A routing beacon advertising a node's path ETX (scaled ×128 like CTP's
/// fixed-point costs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Beacon {
    /// Advertising node.
    pub from: NodeId,
    /// Advertised path ETX ×128 (`u16::MAX` = no route).
    pub path_etx_x128: u16,
}

/// A decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// MAC sender.
    pub src: NodeId,
    /// MAC receiver.
    pub dst: NodeId,
    /// Data sequence number (link-layer).
    pub dsn: u8,
    /// The data packet.
    pub packet: DataPacket,
    /// Application payload bytes.
    pub payload: Bytes,
}

/// Errors from [`decode_frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than a minimal frame.
    Truncated,
    /// Length prefix disagrees with the buffer.
    BadLength,
    /// CRC check failed — the PHY silently discards such frames.
    BadCrc,
}

/// CRC-16/CCITT-FALSE, the 802.15.4 FCS polynomial.
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &b in data {
        crc ^= u16::from(b) << 8;
        for _ in 0..8 {
            if crc & 0x8000 != 0 {
                crc = (crc << 1) ^ 0x1021;
            } else {
                crc <<= 1;
            }
        }
    }
    crc
}

const HEADER_LEN: usize = 1 + 2 + 2 + 1 + 2 + 4 + 1; // len, src, dst, dsn, origin, seqno, thl
const CRC_LEN: usize = 2;

/// Encode a frame: `len | src | dst | dsn | origin | seqno | thl | payload | crc`.
pub fn encode_frame(frame: &Frame) -> Bytes {
    let body_len = HEADER_LEN - 1 + frame.payload.len() + CRC_LEN;
    assert!(body_len <= u8::MAX as usize, "frame exceeds 802.15.4 MTU-ish bound");
    let mut buf = BytesMut::with_capacity(1 + body_len);
    buf.put_u8(body_len as u8);
    buf.put_u16(frame.src.0);
    buf.put_u16(frame.dst.0);
    buf.put_u8(frame.dsn);
    buf.put_u16(frame.packet.id.origin.0);
    buf.put_u32(frame.packet.id.seqno);
    buf.put_u8(frame.packet.thl);
    buf.put_slice(&frame.payload);
    let crc = crc16(&buf[1..]);
    buf.put_u16(crc);
    buf.freeze()
}

/// Decode and CRC-check a frame.
pub fn decode_frame(mut data: &[u8]) -> Result<Frame, FrameError> {
    if data.len() < HEADER_LEN + CRC_LEN {
        return Err(FrameError::Truncated);
    }
    let declared = data[0] as usize;
    if declared != data.len() - 1 {
        return Err(FrameError::BadLength);
    }
    let crc_expect = u16::from_be_bytes([data[data.len() - 2], data[data.len() - 1]]);
    if crc16(&data[1..data.len() - 2]) != crc_expect {
        return Err(FrameError::BadCrc);
    }
    data.advance(1);
    let src = NodeId(data.get_u16());
    let dst = NodeId(data.get_u16());
    let dsn = data.get_u8();
    let origin = NodeId(data.get_u16());
    let seqno = data.get_u32();
    let thl = data.get_u8();
    let payload = Bytes::copy_from_slice(&data[..data.len() - CRC_LEN]);
    Ok(Frame {
        src,
        dst,
        dsn,
        packet: DataPacket {
            id: PacketId::new(origin, seqno),
            thl,
        },
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame {
            src: NodeId(12),
            dst: NodeId(7),
            dsn: 42,
            packet: DataPacket {
                id: PacketId::new(NodeId(12), 1234),
                thl: 3,
            },
            payload: Bytes::from_static(b"co2=417ppm"),
        }
    }

    #[test]
    fn roundtrip() {
        let f = sample();
        let wire = encode_frame(&f);
        let back = decode_frame(&wire).unwrap();
        assert_eq!(f, back);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let mut f = sample();
        f.payload = Bytes::new();
        let back = decode_frame(&encode_frame(&f)).unwrap();
        assert_eq!(f, back);
    }

    #[test]
    fn corruption_fails_crc() {
        let f = sample();
        let wire = encode_frame(&f);
        for i in 1..wire.len() {
            let mut bad = wire.to_vec();
            bad[i] ^= 0x40;
            assert_eq!(
                decode_frame(&bad),
                Err(FrameError::BadCrc),
                "flip at {i} must fail CRC"
            );
        }
    }

    #[test]
    fn truncation_detected() {
        let wire = encode_frame(&sample());
        assert_eq!(decode_frame(&wire[..4]), Err(FrameError::Truncated));
        // Cutting the tail breaks the length prefix first.
        assert_eq!(
            decode_frame(&wire[..wire.len() - 1]),
            Err(FrameError::BadLength)
        );
    }

    #[test]
    fn crc16_known_vector() {
        // CRC-16/CCITT-FALSE("123456789") = 0x29B1.
        assert_eq!(crc16(b"123456789"), 0x29B1);
    }

    #[test]
    fn thl_bumps_on_forward() {
        let p = DataPacket::new(PacketId::new(NodeId(1), 0));
        assert_eq!(p.thl, 0);
        assert_eq!(p.forwarded().thl, 1);
        let mut q = p;
        q.thl = u8::MAX;
        assert_eq!(q.forwarded().thl, u8::MAX, "saturates");
    }

    #[test]
    fn ber_channel_matches_link_model_prediction() {
        // Push frames through a random bit-error channel and check that the
        // CRC-rejection rate matches netsim's PRR = (1-BER)^bits identity —
        // the contract between the byte-level PHY and the statistical link
        // model the simulator uses.
        let mut rng = netsim::Rng::new(9);
        let frame = sample();
        let wire = encode_frame(&frame);
        let ber = 2e-3;
        let trials = 4000;
        let mut accepted = 0;
        for _ in 0..trials {
            let mut noisy = wire.to_vec();
            // The length byte is the PHY's own; corrupt payload + headers + CRC.
            for byte in noisy.iter_mut().skip(1) {
                for bit in 0..8 {
                    if rng.gen::<f64>() < ber {
                        *byte ^= 1 << bit;
                    }
                }
            }
            if decode_frame(&noisy).is_ok() {
                accepted += 1;
            }
        }
        let measured_prr = accepted as f64 / trials as f64;
        let predicted = netsim::link::prr_from_ber(ber, wire.len() - 1);
        assert!(
            (measured_prr - predicted).abs() < 0.04,
            "measured {measured_prr:.3} vs predicted {predicted:.3}"
        );
    }

    #[test]
    fn beacon_cost_scale() {
        let b = Beacon {
            from: NodeId(3),
            path_etx_x128: 3 * 128,
        };
        assert_eq!(b.path_etx_x128 / 128, 3);
    }
}

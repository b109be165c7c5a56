//! IPv4 header parsing, construction, and the forwarding mutations.
//!
//! The classifier validates the header (version, length, checksum); the
//! minimal IP forwarder decrements the TTL and patches the checksum
//! incrementally — both are implemented here as byte-level operations so
//! the VRP programs and the StrongARM/Pentium forwarders share one
//! correct implementation.

use crate::checksum::{checksum16, incremental_update16};
use crate::PacketError;

/// Minimum IPv4 header length (no options).
pub const IPV4_HEADER_LEN: usize = 20;

/// Protocol numbers the router's classifier distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ipv4Proto {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// OSPF (89) — control-plane traffic in the paper's flood experiment.
    Ospf,
    /// Anything else.
    Other(u8),
}

impl From<u8> for Ipv4Proto {
    fn from(v: u8) -> Self {
        match v {
            1 => Ipv4Proto::Icmp,
            6 => Ipv4Proto::Tcp,
            17 => Ipv4Proto::Udp,
            89 => Ipv4Proto::Ospf,
            o => Ipv4Proto::Other(o),
        }
    }
}

impl From<Ipv4Proto> for u8 {
    fn from(v: Ipv4Proto) -> u8 {
        match v {
            Ipv4Proto::Icmp => 1,
            Ipv4Proto::Tcp => 6,
            Ipv4Proto::Udp => 17,
            Ipv4Proto::Ospf => 89,
            Ipv4Proto::Other(o) => o,
        }
    }
}

/// Decoded IPv4 header fields (owned snapshot, not a view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Header length in bytes (20..=60; >20 means options are present).
    pub header_len: u8,
    /// Differentiated services byte.
    pub dscp_ecn: u8,
    /// Total length (header + payload) in bytes.
    pub total_len: u16,
    /// Identification.
    pub ident: u16,
    /// Flags and fragment offset (raw).
    pub flags_frag: u16,
    /// Time to live.
    pub ttl: u8,
    /// Protocol.
    pub proto: Ipv4Proto,
    /// Header checksum as stored.
    pub checksum: u16,
    /// Source address (big-endian u32 form).
    pub src: u32,
    /// Destination address (big-endian u32 form).
    pub dst: u32,
}

impl Ipv4Header {
    /// Parses and fully validates a header from `bytes` (the classifier's
    /// job in the paper: version, length, checksum).
    pub fn parse(bytes: &[u8]) -> Result<Self, PacketError> {
        if bytes.len() < IPV4_HEADER_LEN {
            return Err(PacketError::Truncated);
        }
        let vihl = bytes[0];
        if vihl >> 4 != 4 {
            return Err(PacketError::Malformed);
        }
        let header_len = (vihl & 0x0f) as usize * 4;
        if !(IPV4_HEADER_LEN..=60).contains(&header_len) || bytes.len() < header_len {
            return Err(PacketError::Malformed);
        }
        let total_len = u16::from_be_bytes([bytes[2], bytes[3]]);
        if (total_len as usize) < header_len {
            return Err(PacketError::Malformed);
        }
        if checksum16(&bytes[..header_len]) != 0 {
            return Err(PacketError::BadChecksum);
        }
        Ok(Self {
            header_len: header_len as u8,
            dscp_ecn: bytes[1],
            total_len,
            ident: u16::from_be_bytes([bytes[4], bytes[5]]),
            flags_frag: u16::from_be_bytes([bytes[6], bytes[7]]),
            ttl: bytes[8],
            proto: bytes[9].into(),
            checksum: u16::from_be_bytes([bytes[10], bytes[11]]),
            src: u32::from_be_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]),
            dst: u32::from_be_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]),
        })
    }

    /// Whether the header carries IP options (exceptional-path trigger).
    pub fn has_options(&self) -> bool {
        self.header_len as usize > IPV4_HEADER_LEN
    }

    /// Writes a 20-byte optionless header with a correct checksum.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than [`IPV4_HEADER_LEN`].
    pub fn write(&self, buf: &mut [u8]) {
        buf[0] = 0x45;
        buf[1] = self.dscp_ecn;
        buf[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        buf[4..6].copy_from_slice(&self.ident.to_be_bytes());
        buf[6..8].copy_from_slice(&self.flags_frag.to_be_bytes());
        buf[8] = self.ttl;
        buf[9] = self.proto.into();
        buf[10..12].copy_from_slice(&[0, 0]);
        buf[12..16].copy_from_slice(&self.src.to_be_bytes());
        buf[16..20].copy_from_slice(&self.dst.to_be_bytes());
        let sum = checksum16(&buf[..IPV4_HEADER_LEN]);
        buf[10..12].copy_from_slice(&sum.to_be_bytes());
    }

    /// Decrements the TTL in place and patches the checksum with the
    /// RFC 1624 incremental update — the paper's fast-path operation.
    ///
    /// Returns `false` (and leaves the packet unchanged) if the TTL is
    /// already zero or would become zero, in which case the packet must
    /// be handed to the slow path for ICMP Time Exceeded generation.
    pub fn decrement_ttl(buf: &mut [u8]) -> bool {
        let ttl = buf[8];
        if ttl <= 1 {
            return false;
        }
        let old_word = u16::from_be_bytes([buf[8], buf[9]]);
        buf[8] = ttl - 1;
        let new_word = u16::from_be_bytes([buf[8], buf[9]]);
        let old_sum = u16::from_be_bytes([buf[10], buf[11]]);
        let new_sum = incremental_update16(old_sum, old_word, new_word);
        buf[10..12].copy_from_slice(&new_sum.to_be_bytes());
        true
    }
}

/// Builds an address from dotted-quad components.
pub const fn addr(a: u8, b: u8, c: u8, d: u8) -> u32 {
    u32::from_be_bytes([a, b, c, d])
}

#[cfg(test)]
mod tests {
    use super::*;
    use npr_check::prelude::*;

    fn sample_header() -> Ipv4Header {
        Ipv4Header {
            header_len: 20,
            dscp_ecn: 0,
            total_len: 46,
            ident: 0x1c46,
            flags_frag: 0x4000,
            ttl: 64,
            proto: Ipv4Proto::Udp,
            checksum: 0,
            src: addr(10, 0, 0, 1),
            dst: addr(192, 168, 1, 7),
        }
    }

    #[test]
    fn write_parse_round_trip() {
        let h = sample_header();
        let mut buf = [0u8; 46];
        h.write(&mut buf);
        let parsed = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(parsed.ttl, 64);
        assert_eq!(parsed.src, h.src);
        assert_eq!(parsed.dst, h.dst);
        assert_eq!(parsed.proto, Ipv4Proto::Udp);
        assert!(!parsed.has_options());
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = [0u8; 20];
        sample_header().write(&mut buf);
        buf[0] = 0x55;
        assert_eq!(Ipv4Header::parse(&buf).unwrap_err(), PacketError::Malformed);
    }

    #[test]
    fn corrupted_checksum_rejected() {
        let mut buf = [0u8; 20];
        sample_header().write(&mut buf);
        buf[15] ^= 0xff;
        assert_eq!(
            Ipv4Header::parse(&buf).unwrap_err(),
            PacketError::BadChecksum
        );
    }

    #[test]
    fn short_total_len_rejected() {
        let mut buf = [0u8; 20];
        let mut h = sample_header();
        h.total_len = 10;
        h.write(&mut buf);
        assert_eq!(Ipv4Header::parse(&buf).unwrap_err(), PacketError::Malformed);
    }

    #[test]
    fn ttl_decrement_keeps_checksum_valid() {
        let mut buf = [0u8; 20];
        sample_header().write(&mut buf);
        assert!(Ipv4Header::decrement_ttl(&mut buf));
        let parsed = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(parsed.ttl, 63);
    }

    #[test]
    fn ttl_expiry_leaves_packet_untouched() {
        let mut buf = [0u8; 20];
        let mut h = sample_header();
        h.ttl = 1;
        h.write(&mut buf);
        let before = buf;
        assert!(!Ipv4Header::decrement_ttl(&mut buf));
        assert_eq!(buf, before);
    }

    #[test]
    fn proto_round_trip() {
        for p in [1u8, 6, 17, 89, 200] {
            assert_eq!(u8::from(Ipv4Proto::from(p)), p);
        }
    }

    proptest! {
        #[test]
        fn ttl_decrement_checksum_always_valid(ttl in 2u8..=255, src: u32, dst: u32, ident: u16) {
            let mut h = sample_header();
            h.ttl = ttl;
            h.src = src;
            h.dst = dst;
            h.ident = ident;
            let mut buf = [0u8; 20];
            h.write(&mut buf);
            prop_assert!(Ipv4Header::decrement_ttl(&mut buf));
            let parsed = Ipv4Header::parse(&buf).unwrap();
            prop_assert_eq!(parsed.ttl, ttl - 1);
        }
    }
}

/// Fragments an Ethernet/IPv4 frame so every fragment's IP payload fits
/// `mtu` bytes of IP datagram (header included), per RFC 791. Returns
/// the fragments (each a complete Ethernet frame) or `None` when the
/// packet cannot be fragmented (DF set, not IPv4, or already small
/// enough — in the last case fragmentation is unnecessary, not an
/// error; callers should check first).
///
/// Fragment offsets are in 8-byte units, so the per-fragment payload is
/// rounded down to a multiple of 8 except for the last fragment.
pub fn fragment(frame: &[u8], mtu: usize) -> Option<Vec<Vec<u8>>> {
    use crate::ethernet::ETHERNET_HEADER_LEN;
    let eth = crate::ethernet::EthernetFrame::parse(frame).ok()?;
    let ip = Ipv4Header::parse(eth.payload()).ok()?;
    let header_len = usize::from(ip.header_len);
    let total = usize::from(ip.total_len);
    if total <= mtu {
        return None;
    }
    // DF bit: may not fragment.
    if ip.flags_frag & 0x4000 != 0 {
        return None;
    }
    let payload = &eth.payload()[header_len..total];
    let chunk = ((mtu - header_len) / 8) * 8;
    if chunk == 0 {
        return None;
    }
    let base_offset = (ip.flags_frag & 0x1fff) as usize; // 8-byte units.
    let more_after = ip.flags_frag & 0x2000 != 0;
    let mut out = Vec::new();
    let mut off = 0usize;
    while off < payload.len() {
        let this = chunk.min(payload.len() - off);
        let last = off + this >= payload.len();
        let mut f = vec![0u8; ETHERNET_HEADER_LEN + header_len + this];
        f[..ETHERNET_HEADER_LEN].copy_from_slice(&frame[..ETHERNET_HEADER_LEN]);
        let mut h = ip;
        h.total_len = (header_len + this) as u16;
        h.flags_frag = ((base_offset + off / 8) as u16 & 0x1fff)
            | if last && !more_after { 0 } else { 0x2000 };
        // `Ipv4Header::write` emits a 20-byte header; options are not
        // carried into fragments (legal: only copy-flagged options must
        // be, and we model none).
        h.header_len = 20;
        h.write(&mut f[ETHERNET_HEADER_LEN..]);
        f[ETHERNET_HEADER_LEN + 20..].copy_from_slice(&payload[off..off + this]);
        out.push(f);
        off += this;
    }
    Some(out)
}

/// Reassembles fragments (all of one datagram, any order) back into the
/// original payload bytes. Test helper / slow-path receiver.
pub fn reassemble(fragments: &[Vec<u8>]) -> Option<Vec<u8>> {
    let mut parts: Vec<(usize, Vec<u8>, bool)> = Vec::new();
    for f in fragments {
        let eth = crate::ethernet::EthernetFrame::parse(f).ok()?;
        let ip = Ipv4Header::parse(eth.payload()).ok()?;
        let hl = usize::from(ip.header_len);
        let data = eth.payload()[hl..usize::from(ip.total_len)].to_vec();
        let off = usize::from(ip.flags_frag & 0x1fff) * 8;
        let more = ip.flags_frag & 0x2000 != 0;
        parts.push((off, data, more));
    }
    parts.sort_by_key(|&(off, ..)| off);
    let mut out = Vec::new();
    for (off, data, _) in &parts {
        if *off != out.len() {
            return None; // Gap or overlap.
        }
        out.extend_from_slice(data);
    }
    // The last fragment must have MF clear.
    if parts.last().map(|&(.., more)| more) != Some(false) {
        return None;
    }
    Some(out)
}

#[cfg(test)]
mod fragment_tests {
    use super::*;
    use npr_check::prelude::*;

    fn big_frame(payload_len: usize, df: bool) -> Vec<u8> {
        let total = 20 + payload_len;
        let mut f = vec![0u8; 14 + total];
        crate::ethernet::EthernetFrame::write_header(
            &mut f,
            crate::ethernet::MacAddr::for_port(1),
            crate::ethernet::MacAddr::for_port(2),
            crate::ethernet::EtherType::Ipv4,
        );
        Ipv4Header {
            header_len: 20,
            dscp_ecn: 0,
            total_len: total as u16,
            ident: 0x7777,
            flags_frag: if df { 0x4000 } else { 0 },
            ttl: 64,
            proto: Ipv4Proto::Udp,
            checksum: 0,
            src: 1,
            dst: 2,
        }
        .write(&mut f[14..]);
        for (i, b) in f[34..].iter_mut().enumerate() {
            *b = i as u8;
        }
        f
    }

    #[test]
    fn fragments_fit_the_mtu_and_reassemble() {
        let frame = big_frame(1400, false);
        let frags = fragment(&frame, 576).unwrap();
        assert!(frags.len() >= 3);
        for (i, f) in frags.iter().enumerate() {
            let ip = Ipv4Header::parse(&f[14..]).unwrap();
            assert!(usize::from(ip.total_len) <= 576, "fragment {i} oversized");
            assert_eq!(ip.ident, 0x7777, "ident preserved");
            // Each fragment's checksum is valid (parse checks it).
        }
        let whole = reassemble(&frags).unwrap();
        assert_eq!(whole.len(), 1400);
        assert!(whole.iter().enumerate().all(|(i, &b)| b == i as u8));
    }

    #[test]
    fn df_frames_are_not_fragmented() {
        let frame = big_frame(1400, true);
        assert!(fragment(&frame, 576).is_none());
    }

    #[test]
    fn small_frames_need_no_fragmentation() {
        let frame = big_frame(100, false);
        assert!(fragment(&frame, 576).is_none());
    }

    #[test]
    fn only_last_fragment_clears_more_bit() {
        let frame = big_frame(1200, false);
        let frags = fragment(&frame, 400).unwrap();
        for (i, f) in frags.iter().enumerate() {
            let ip = Ipv4Header::parse(&f[14..]).unwrap();
            let more = ip.flags_frag & 0x2000 != 0;
            assert_eq!(more, i + 1 < frags.len());
        }
    }

    #[test]
    fn reassembly_rejects_gaps() {
        let frame = big_frame(1200, false);
        let mut frags = fragment(&frame, 400).unwrap();
        frags.remove(1);
        assert!(reassemble(&frags).is_none());
    }

    proptest! {
        #[test]
        fn fragment_reassemble_round_trip(
            len in 100usize..1480,
            mtu in 68usize..600,
        ) {
            let frame = big_frame(len, false);
            match fragment(&frame, mtu) {
                Some(frags) => {
                    let whole = reassemble(&frags).unwrap();
                    prop_assert_eq!(whole.len(), len);
                    prop_assert!(whole.iter().enumerate().all(|(i, &b)| b == i as u8));
                }
                None => prop_assert!(20 + len <= mtu, "refused a fragmentable packet"),
            }
        }
    }
}

//! MAC port model: wire-rate MP segmentation on receive, wire-rate
//! serialization on transmit, bounded receive buffering with whole-frame
//! drops on overflow.
//!
//! A port pulls frames from a [`TrafficSource`], or is handed them one
//! at a time ([`PortData::offer`]); each frame is broken
//! into 64-byte MPs whose arrival times follow the wire rate (including
//! the 24 bytes of preamble/IFG/FCS overhead per frame, which is what
//! makes 148.8 Kpps the theoretical maximum for minimum-sized packets at
//! 100 Mbps).

use std::collections::VecDeque;

use npr_packet::{Frame, Mp};
use npr_sim::Time;

use crate::params::WIRE_OVERHEAD_BYTES;

/// Index of a MAC port on the board.
pub type PortId = usize;

/// A pull-based frame source attached to a port's receive side.
///
/// `next_frame` returns the earliest time the frame's first bit may
/// appear on the wire, plus the frame bytes. Returning `None` ends the
/// stream. Sources are pulled one frame ahead of the wire, so they may
/// generate frames lazily.
/// `Send` so a port (and the chip owning it) can move across worker
/// threads under `npr_sim::delivery`; a source is only ever pulled by
/// the thread that owns its port.
pub trait TrafficSource: Send {
    /// Produces the next frame, or `None` when the stream ends.
    fn next_frame(&mut self) -> Option<(Time, Frame)>;
}

/// Blanket impl so closures can be used as sources in tests.
impl<F: FnMut() -> Option<(Time, Frame)> + Send> TrafficSource for F {
    fn next_frame(&mut self) -> Option<(Time, Frame)> {
        self()
    }
}

/// Per-port state: data-plane buffers, counters, and rx/tx timing.
pub struct PortData {
    /// Link rate in bits per second.
    pub rate_bps: u64,
    /// Received MPs awaiting pickup by input contexts.
    pub rx_buf: VecDeque<Mp>,
    /// Capacity of `rx_buf` in MPs.
    pub rx_cap: usize,
    /// MPs received into the buffer.
    pub rx_mps: u64,
    /// Complete frames received into the buffer.
    pub rx_frames: u64,
    /// Frames lost to buffer overflow.
    pub rx_frames_dropped: u64,
    /// MPs discarded (counts every MP of a dropped frame).
    pub rx_mps_dropped: u64,
    /// Time the transmit side finishes serializing everything queued.
    pub tx_free_at: Time,
    /// MPs sent to the wire.
    pub tx_mps: u64,
    /// Complete frames sent (counted on the `Last`/`Only` MP).
    pub tx_frames: u64,
    /// Bytes of frame data transmitted.
    pub tx_bytes: u64,
    /// When set, every transmitted MP is also appended here (used by
    /// the multi-router fabric to carry frames between chassis).
    pub tx_capture: Option<Vec<(Time, Mp)>>,
    /// Link-down window injected by the fault plane: MPs arriving while
    /// `now < down_until` are dropped (whole frames, counted in the rx
    /// drop counters exactly like buffer overflow).
    pub down_until: Time,
    /// Flap episodes injected so far.
    pub flaps: u64,

    pub(crate) source: Option<Box<dyn TrafficSource>>,
    pub(crate) pending: VecDeque<(Time, Mp)>,
    /// When the `RxArrive` for the head of `pending` is scheduled and
    /// not yet dispatched, its instant. At most one may be outstanding
    /// per port: a second would pop the following MP before its wire
    /// time. The machine also reads it as the next instant this port
    /// can become ready (`spin.rs`).
    pub(crate) rx_due: Option<Time>,
    pub(crate) last_frame_end: Time,
    pub(crate) frame_seq: u64,
    pub(crate) dropping_frame: Option<u64>,
}

impl std::fmt::Debug for PortData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortData")
            .field("rate_bps", &self.rate_bps)
            .field("rx_buf_len", &self.rx_buf.len())
            .field("rx_frames", &self.rx_frames)
            .field("rx_frames_dropped", &self.rx_frames_dropped)
            .field("tx_frames", &self.tx_frames)
            .finish()
    }
}

impl PortData {
    /// Creates an idle port at `rate_bps` with an `rx_cap`-MP buffer.
    pub fn new(rate_bps: u64, rx_cap: usize) -> Self {
        Self {
            rate_bps,
            rx_buf: VecDeque::new(),
            rx_cap,
            rx_mps: 0,
            rx_frames: 0,
            rx_frames_dropped: 0,
            rx_mps_dropped: 0,
            tx_free_at: 0,
            tx_mps: 0,
            tx_frames: 0,
            tx_bytes: 0,
            tx_capture: None,
            down_until: 0,
            flaps: 0,
            source: None,
            pending: VecDeque::new(),
            rx_due: None,
            last_frame_end: 0,
            frame_seq: 0,
            dropping_frame: None,
        }
    }

    /// True when an input context's `port_rdy` test would succeed.
    pub fn rdy(&self) -> bool {
        !self.rx_buf.is_empty()
    }

    /// Takes the link down until `now + dur_ps` (fault plane).
    /// Overlapping flaps extend the outage.
    pub fn inject_flap(&mut self, now: Time, dur_ps: Time) {
        self.down_until = self.down_until.max(now + dur_ps);
        self.flaps += 1;
    }

    /// Pulls frames from the source until at least one MP arrival is
    /// pending (or the source is exhausted). Returns the arrival time of
    /// the next pending MP, if any.
    pub(crate) fn refill_pending(&mut self, port: PortId) -> Option<Time> {
        while self.pending.is_empty() {
            let (at, frame) = self.source.as_mut()?.next_frame()?;
            self.offer(port, at, &frame);
        }
        self.pending.front().map(|&(t, _)| t)
    }

    /// Puts `frame` on `port`'s wire: its first bit at `at` or when the
    /// previous frame ends, whichever is later, each 64-byte MP pending
    /// until its last byte has arrived. `port` makes the frame id
    /// unique across ports. The caller re-arms the receive schedule.
    pub fn offer(&mut self, port: PortId, at: Time, frame: &[u8]) {
        let start = at.max(self.last_frame_end);
        let wire_total = frame_wire_ps(self.rate_bps, frame.len());
        let fid = (port as u64) << 48 | self.frame_seq;
        self.frame_seq += 1;
        let mps = Mp::segment(frame, port as u8, fid);
        let n = mps.len();
        for (k, mp) in mps.into_iter().enumerate() {
            // MP k is complete when its last byte has arrived; the
            // final MP lands when the whole frame (incl. overhead
            // trailer) has.
            let bytes_done = ((k + 1) * 64).min(frame.len());
            let t = if k == n - 1 {
                start + wire_total
            } else {
                start + bytes_ps(self.rate_bps, bytes_done)
            };
            self.pending.push_back((t, mp));
        }
        self.last_frame_end = start + wire_total;
    }

    /// What is still on the receive wire: the MPs pending, and the
    /// frames none of whose MPs have arrived yet.
    pub fn on_wire(&self) -> (usize, usize) {
        let whole = self
            .pending
            .iter()
            .filter(|(_, mp)| mp.tag.starts_packet())
            .count();
        (self.pending.len(), whole)
    }

    /// Delivers the pending MP due at `now` into the rx buffer (or drops
    /// the frame on overflow). Returns the time of the next pending MP.
    pub(crate) fn deliver_pending(&mut self, now: Time) -> Option<Time> {
        if let Some(&(t, _)) = self.pending.front() {
            debug_assert!(t <= now, "MP delivered before its wire time");
            let (_, mp) = self.pending.pop_front().expect("checked front");
            if self.dropping_frame == Some(mp.frame_id) {
                self.rx_mps_dropped += 1;
            } else if now < self.down_until {
                // Link flap: the frame is lost on the wire, counted the
                // same way as a buffer overflow.
                self.rx_mps_dropped += 1;
                self.rx_frames_dropped += 1;
                self.dropping_frame = Some(mp.frame_id);
            } else if self.rx_buf.len() >= self.rx_cap {
                self.rx_mps_dropped += 1;
                self.rx_frames_dropped += 1;
                self.dropping_frame = Some(mp.frame_id);
            } else {
                let ends = mp.tag.ends_packet();
                self.rx_buf.push_back(mp);
                self.rx_mps += 1;
                if ends {
                    self.rx_frames += 1;
                }
            }
        }
        self.pending.front().map(|&(t, _)| t)
    }

    /// Accounts one MP handed to the transmit side. Returns
    /// `(wire_done, dma_release)`: when the MP finishes serializing,
    /// and when the DMA engine is released — if the port's transmit
    /// buffer (`cap_mps` MPs deep) is full, the DMA stalls until there
    /// is room, which is how output-port congestion backs up into the
    /// queues.
    pub fn admit_tx(&mut self, ready: Time, mp: &Mp, cap_mps: usize) -> (Time, Time) {
        let backlog_before = self.tx_free_at;
        let wire_done = self.transmit_mp(ready, mp);
        let cap_ps = bytes_ps(self.rate_bps, 64 * cap_mps.max(1));
        let dma_release = ready.max(backlog_before.saturating_sub(cap_ps));
        (wire_done, dma_release)
    }

    /// Accounts one MP handed to the transmit side at `ready` (when its
    /// DMA from the output FIFO completes). Returns the time the MP is
    /// fully on the wire.
    pub fn transmit_mp(&mut self, ready: Time, mp: &Mp) -> Time {
        let ends = mp.tag.ends_packet();
        // Frame overhead (preamble/IFG/FCS) is charged with the final MP.
        let wire = if ends {
            bytes_ps(self.rate_bps, mp.len as usize + WIRE_OVERHEAD_BYTES)
        } else {
            bytes_ps(self.rate_bps, mp.len as usize)
        };
        self.tx_free_at = self.tx_free_at.max(ready) + wire;
        self.tx_mps += 1;
        self.tx_bytes += u64::from(mp.len);
        if ends {
            self.tx_frames += 1;
        }
        self.tx_free_at
    }
}

/// Picoseconds for `bytes` at `rate_bps`.
fn bytes_ps(rate_bps: u64, bytes: usize) -> Time {
    bytes as u64 * 8 * npr_sim::PS_PER_SEC / rate_bps
}

/// Wire time of a whole frame including overhead.
fn frame_wire_ps(rate_bps: u64, len: usize) -> Time {
    bytes_ps(rate_bps, len + WIRE_OVERHEAD_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A source emitting `n` min-sized frames back-to-back from t = 0.
    fn burst(n: usize) -> Box<dyn TrafficSource> {
        let mut left = n;
        Box::new(move || {
            if left == 0 {
                return None;
            }
            left -= 1;
            Some((0, vec![0u8; 60]))
        })
    }

    #[test]
    fn min_frames_arrive_at_line_rate() {
        let mut p = PortData::new(100_000_000, 64);
        p.source = Some(burst(3));
        let t0 = p.refill_pending(0).unwrap();
        assert_eq!(t0, 6_720_000); // 84 bytes at 100 Mbps.
        let mut now = t0;
        let t1 = p.deliver_pending(now).unwrap_or(0);
        // Next frame's MP lands one frame-time later.
        assert_eq!(t1, 0); // Pending drained; must refill.
        let t1 = p.refill_pending(0).unwrap();
        assert_eq!(t1, 2 * 6_720_000);
        now = t1;
        p.deliver_pending(now);
        assert_eq!(p.rx_frames, 2);
        assert_eq!(p.rx_buf.len(), 2);
    }

    #[test]
    fn large_frame_splits_into_timed_mps() {
        let mut p = PortData::new(100_000_000, 64);
        let mut sent = false;
        p.source = Some(Box::new(move || {
            if sent {
                None
            } else {
                sent = true;
                Some((0, vec![0u8; 150]))
            }
        }));
        let t0 = p.refill_pending(3).unwrap();
        // First MP after 64 bytes: 5.12 us.
        assert_eq!(t0, 5_120_000);
        assert_eq!(p.pending.len(), 3);
        let last = p.pending.back().unwrap().0;
        // Whole frame (150 + 24 bytes) = 13.92 us.
        assert_eq!(last, 13_920_000);
    }

    #[test]
    fn overflow_drops_whole_frame() {
        let mut p = PortData::new(100_000_000, 1);
        p.source = Some(burst(3));
        let mut t = p.refill_pending(0);
        for _ in 0..3 {
            let now = t.unwrap();
            p.deliver_pending(now);
            t = p.refill_pending(0);
        }
        // Buffer holds 1 MP; the other two frames were dropped whole.
        assert_eq!(p.rx_frames, 1);
        assert_eq!(p.rx_frames_dropped, 2);
        assert_eq!(p.rx_mps_dropped, 2);
    }

    #[test]
    fn flap_drops_frames_until_link_recovers() {
        let mut p = PortData::new(100_000_000, 64);
        p.source = Some(burst(3));
        // Down past the first two frame arrivals (6.72 us, 13.44 us).
        p.inject_flap(0, 15_000_000);
        assert_eq!(p.flaps, 1);
        let mut t = p.refill_pending(0);
        for _ in 0..3 {
            let now = t.unwrap();
            p.deliver_pending(now);
            t = p.refill_pending(0);
        }
        // Frames landing at 6.72 us and 13.44 us are lost; the third
        // (20.16 us) arrives after the link comes back.
        assert_eq!(p.rx_frames_dropped, 2);
        assert_eq!(p.rx_mps_dropped, 2);
        assert_eq!(p.rx_frames, 1);
    }

    #[test]
    fn transmit_serializes_at_wire_rate() {
        let mut p = PortData::new(100_000_000, 8);
        let mp = Mp::segment(&[0u8; 60], 0, 1).pop().unwrap();
        let d0 = p.transmit_mp(0, &mp);
        let d1 = p.transmit_mp(0, &mp);
        assert_eq!(d0, 6_720_000);
        assert_eq!(d1, 2 * 6_720_000);
        assert_eq!(p.tx_frames, 2);
    }

    #[test]
    fn multi_mp_frame_counts_once_on_tx() {
        let mut p = PortData::new(1_000_000_000, 8);
        let mps = Mp::segment(&[0u8; 128], 0, 1);
        for mp in &mps {
            p.transmit_mp(0, mp);
        }
        assert_eq!(p.tx_frames, 1);
        assert_eq!(p.tx_mps, 2);
        assert_eq!(p.tx_bytes, 128);
    }

    #[test]
    fn closure_source_works() {
        let mut p = PortData::new(100_000_000, 8);
        let mut n = 0;
        p.source = Some(Box::new(move || {
            n += 1;
            (n <= 2).then(|| (0, vec![0u8; 60]))
        }));
        assert!(p.refill_pending(0).is_some());
    }
}

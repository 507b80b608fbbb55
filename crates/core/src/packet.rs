//! The APEnet+ packet format.
//!
//! "Network packets carry the 64-bit destination virtual memory address in
//! the header, so when they land onto the destination card, the BUF_LIST is
//! used to distinguish GPU from host buffers" (§IV.A). The RX datapath
//! processes packets of up to 4 KB ("3 µs, 1.2 GB/s for 4 KB packets").

use crate::coord::Coord;
use apenet_sim::bytes::PayloadSlice;
use apenet_sim::trace::SpanId;

/// Maximum payload of one APEnet+ packet.
pub const APE_MAX_PAYLOAD: u32 = 4096;

/// Header + footer wire overhead per packet (routing header with
/// destination coordinates, 64-bit destination address, size, CRC).
pub const APE_PACKET_OVERHEAD: u64 = 32;

/// A message identifier unique per (source node, sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MsgId {
    /// Rank of the sending node.
    pub src_rank: u32,
    /// Per-sender sequence number.
    pub seq: u64,
}

impl MsgId {
    /// The trace span correlating every observation of this message —
    /// derived from the identity, so replays agree without coordination.
    pub fn span(self) -> SpanId {
        SpanId::from_msg(self.src_rank, self.seq)
    }
}

/// Header extension carried by a GET (RDMA-Read) request packet: where
/// on the *requesting* node the remotely-read bytes must land. The
/// responder copies it into the `dst_vaddr` of every reply fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetHeader {
    /// Requester-local virtual address the reply stream writes to.
    pub reply_vaddr: u64,
}

/// One packet on the torus.
#[derive(Debug, Clone, PartialEq)]
pub struct ApePacket {
    /// Destination node coordinates (used by the router).
    pub dst: Coord,
    /// Source node coordinates.
    pub src: Coord,
    /// The message this packet is a fragment of.
    pub msg: MsgId,
    /// Destination virtual (UVA) address of this fragment.
    pub dst_vaddr: u64,
    /// Total length of the whole message (for completion detection).
    pub msg_len: u64,
    /// The fragment data — a refcounted view into the source buffer, so
    /// fragmentation and forwarding never copy payload bytes.
    pub payload: PayloadSlice,
    /// Present on GET (remote-read) request packets: `dst_vaddr` then
    /// names the *responder-local* range to read, `msg_len` the length,
    /// and this header carries the requester-side landing address.
    pub get: Option<GetHeader>,
    /// ECN-style congestion-experienced mark: set by any hop whose
    /// egress port queue is past the overload plane's high-water mark.
    /// Routers that mark re-seal the header (the CRC covers this bit, so
    /// wire corruption can neither forge nor erase a mark undetected).
    pub ecn: bool,
    /// Congestion-notification packet (the echo of an ECN mark): a
    /// header-only frame the *destination* card sends back to `msg`'s
    /// source once a marked message completes, carrying no payload and
    /// consuming no completion — the sender's pacer eats it.
    pub cnp: bool,
    /// Header checksum (set by [`ApePacket::seal`], checked on RX).
    pub crc: u32,
}

impl ApePacket {
    /// Build and seal a packet. `payload` may be anything convertible to a
    /// [`PayloadSlice`] (a `Vec<u8>` or an existing zero-copy slice).
    pub fn new(
        dst: Coord,
        src: Coord,
        msg: MsgId,
        dst_vaddr: u64,
        msg_len: u64,
        payload: impl Into<PayloadSlice>,
    ) -> Self {
        let payload = payload.into();
        assert!(payload.len() as u32 <= APE_MAX_PAYLOAD);
        let mut p = ApePacket {
            dst,
            src,
            msg,
            dst_vaddr,
            msg_len,
            payload,
            get: None,
            ecn: false,
            cnp: false,
            crc: 0,
        };
        p.crc = p.compute_crc();
        p
    }

    /// Build and seal a GET (remote-read) request: a header-only packet
    /// asking the card at `dst` to stream `len` bytes starting at its
    /// local `src_vaddr` back to `reply_vaddr` on the requesting node.
    pub fn get_request(
        dst: Coord,
        src: Coord,
        msg: MsgId,
        src_vaddr: u64,
        len: u64,
        reply_vaddr: u64,
    ) -> Self {
        let mut p = ApePacket {
            dst,
            src,
            msg,
            dst_vaddr: src_vaddr,
            msg_len: len,
            payload: PayloadSlice::empty(),
            get: Some(GetHeader { reply_vaddr }),
            ecn: false,
            cnp: false,
            crc: 0,
        };
        p.crc = p.compute_crc();
        p
    }

    /// Build and seal a congestion-notification packet: a header-only
    /// echo of `msg`'s ECN mark, from the congested destination back to
    /// the message source. It carries the marked message's id so the
    /// sender's pacer can charge the right per-destination window.
    pub fn cnp(dst: Coord, src: Coord, msg: MsgId) -> Self {
        let mut p = ApePacket {
            dst,
            src,
            msg,
            dst_vaddr: 0,
            msg_len: 0,
            payload: PayloadSlice::empty(),
            get: None,
            ecn: false,
            cnp: true,
            crc: 0,
        };
        p.crc = p.compute_crc();
        p
    }

    /// True when this packet is a GET request header (no payload; asks
    /// the destination card to read and stream back local memory).
    pub fn is_get_request(&self) -> bool {
        self.get.is_some()
    }

    /// True when this packet is a congestion-notification echo.
    pub fn is_cnp(&self) -> bool {
        self.cnp
    }

    /// Set the ECN congestion-experienced mark and re-seal the header
    /// (marking hops rewrite the CRC, like an IP router updating its
    /// header checksum after setting CE).
    pub fn mark_ecn(&mut self) {
        if !self.ecn {
            self.ecn = true;
            self.crc = self.compute_crc();
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> u64 {
        self.payload.len() as u64
    }

    /// True when carrying no payload (pure header, e.g. a 0-byte PUT).
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Bytes this packet occupies on a torus link.
    pub fn wire_bytes(&self) -> u64 {
        APE_PACKET_OVERHEAD + self.len()
    }

    fn compute_crc(&self) -> u32 {
        // CRC-32/ISO-HDLC over header fields and payload — enough to catch
        // the corruption the tests inject; the real card uses link-level
        // CRC blocks in the Stratix transceivers.
        let mut crc = Crc32::new();
        crc.update(&[
            self.dst.x, self.dst.y, self.dst.z, self.src.x, self.src.y, self.src.z,
        ]);
        crc.update(&self.msg.src_rank.to_le_bytes());
        crc.update(&self.msg.seq.to_le_bytes());
        crc.update(&self.dst_vaddr.to_le_bytes());
        crc.update(&self.msg_len.to_le_bytes());
        // The GET discriminator and reply address are header bits too: a
        // corrupted read-request must fail verification, never silently
        // turn into (or out of) a write.
        match self.get {
            None => crc.update(&[0]),
            Some(g) => {
                crc.update(&[1]);
                crc.update(&g.reply_vaddr.to_le_bytes());
            }
        }
        // The congestion bits are header bits too: corruption must not
        // forge a mark, erase one, or turn a data frame into a CNP.
        crc.update(&[self.ecn as u8, self.cnp as u8]);
        crc.update(&self.payload);
        crc.finish()
    }

    /// Verify integrity.
    pub fn verify(&self) -> bool {
        self.crc == self.compute_crc()
    }
}

/// Fragment a message into packet-sized `(offset, len)` pieces.
pub fn fragments(len: u64) -> impl Iterator<Item = (u64, u32)> {
    let full = len / APE_MAX_PAYLOAD as u64;
    let rem = (len % APE_MAX_PAYLOAD as u64) as u32;
    (0..full)
        .map(|i| (i * APE_MAX_PAYLOAD as u64, APE_MAX_PAYLOAD))
        .chain((rem > 0).then_some((full * APE_MAX_PAYLOAD as u64, rem)))
}

/// A small, dependency-free CRC-32 (polynomial 0xEDB88320).
///
/// Every packet is sealed at the TX stage and verified at each link RX,
/// with payloads up to 4 KiB, so this sits squarely on the simulator's
/// hot path. Two paths compute the same function:
///
/// - On x86_64 CPUs with PCLMULQDQ and SSE4.1, inputs of 128 bytes or
///   more are folded 64 bytes per step by carry-less multiplication
///   ([`clmul::fold`]), and the < 16 B tail goes through the table.
/// - Everything else (the header fields, payloads under 128 B, other
///   targets) runs the table-driven "slice-by-8" loop
///   ([`Crc32::update_table`]): 8 compile-time tables consume 8 bytes per
///   iteration with no per-bit work.
///
/// Both paths produce identical registers for every input, so seals,
/// verifies and every golden digest do not depend on the host CPU (a
/// property test compares them; the reference check value
/// CRC32("123456789") = 0xCBF43926 is pinned too).
struct Crc32 {
    state: u32,
}

/// `TABLES[0]` is the classic per-byte CRC table; `TABLES[k][b]` extends
/// `TABLES[k-1][b]` by one zero byte, so 8 lookups advance 8 bytes.
static CRC32_TABLES: [[u32; 256]; 8] = build_crc32_tables();

const fn build_crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0usize;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0usize;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            b += 1;
        }
        k += 1;
    }
    tables
}

impl Crc32 {
    fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= 128 && clmul::available() {
            let (blocks, tail) = data.split_at(data.len() & !15);
            // SAFETY: `available()` has just confirmed that this CPU
            // supports every feature `fold` is compiled with.
            self.state = unsafe { clmul::fold(self.state, blocks) };
            self.update_table(tail);
            return;
        }
        self.update_table(data);
    }

    fn update_table(&mut self, data: &[u8]) {
        let t = &CRC32_TABLES;
        let mut chunks = data.chunks_exact(8);
        let mut crc = self.state;
        for c in &mut chunks {
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    fn finish(self) -> u32 {
        !self.state
    }
}

/// CRC-32 by carry-less-multiply folding (Intel, "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction", 2009), for the
/// bit-reflected polynomial 0xEDB88320. Four 128-bit accumulators fold
/// 64 bytes per step; they are then folded into one, reduced to 64 bits
/// and Barrett-reduced to the 32-bit register. The constants are
/// x^k mod P(x) for the fold distances, bit-reflected and shifted by one
/// as the reflected variant requires (the same values as the Linux
/// kernel's crc32-pclmul and the crc32fast crate).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// x^(4·128+32) and x^(4·128−32) mod P: fold distance 64 bytes.
    const K1K2: (i64, i64) = (0x1_5444_2bd4, 0x1_c6e4_1596);
    /// x^(128+32) and x^(128−32) mod P: fold distance 16 bytes.
    const K3K4: (i64, i64) = (0x1_7519_97d0, 0x0_ccaa_009e);
    /// x^64 mod P: the 96 → 64 bit step.
    const K5: i64 = 0x1_63cd_6124;
    /// P(x) and μ = ⌊x^64 / P(x)⌋, both bit-reflected, for Barrett.
    const P_MU: (i64, i64) = (0x1_db71_0641, 0x1_f701_1641);

    /// True when this CPU can run [`fold`]. `is_x86_feature_detected!`
    /// caches its answer, so after the first call this is two loads.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Advance the CRC register `state` (before the final inversion) over
    /// `data`, whose length must be a multiple of 16 and at least 64 bytes.
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    pub(super) fn fold(state: u32, data: &[u8]) -> u32 {
        assert!(data.len() >= 64 && data.len().is_multiple_of(16));
        let (head, rest) = data.split_at(64);
        let mut x = [0, 1, 2, 3].map(|i| load(&head[16 * i..16 * (i + 1)]));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));

        let k1k2 = _mm_set_epi64x(K1K2.1, K1K2.0);
        let mut quads = rest.chunks_exact(64);
        for q in &mut quads {
            for (i, xi) in x.iter_mut().enumerate() {
                *xi = fold16(*xi, load(&q[16 * i..16 * (i + 1)]), k1k2);
            }
        }

        let k3k4 = _mm_set_epi64x(K3K4.1, K3K4.0);
        let mut acc = fold16(x[0], x[1], k3k4);
        acc = fold16(acc, x[2], k3k4);
        acc = fold16(acc, x[3], k3k4);
        for b in quads.remainder().chunks_exact(16) {
            acc = fold16(acc, load(b), k3k4);
        }

        // 128 → 96 bits, then 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        acc = _mm_xor_si128(
            _mm_clmulepi64_si128(acc, k3k4, 0x10),
            _mm_srli_si128(acc, 8),
        );
        acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(acc, 4),
        );

        // Barrett reduction 64 → 32 bits (reflected: the result is the
        // upper half of the low 64-bit lane).
        let pu = _mm_set_epi64x(P_MU.1, P_MU.0);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(acc, t2), 1) as u32
    }

    /// Fold accumulator `a` forward over 128 bits and add block `b`.
    #[target_feature(enable = "pclmulqdq,sse2")]
    fn fold16(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, k, 0x00);
        let hi = _mm_clmulepi64_si128(a, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// An unaligned little-endian 16-byte load, without raw pointers.
    #[target_feature(enable = "sse2")]
    fn load(b: &[u8]) -> __m128i {
        let v = u128::from_le_bytes(b.try_into().expect("16-byte block"));
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(payload: impl Into<PayloadSlice>) -> ApePacket {
        let payload = payload.into();
        ApePacket::new(
            Coord::new(1, 0, 0),
            Coord::new(0, 0, 0),
            MsgId {
                src_rank: 0,
                seq: 7,
            },
            0x7000_0000_1000,
            payload.len() as u64,
            payload,
        )
    }

    #[test]
    fn seal_and_verify() {
        let p = packet(vec![1, 2, 3, 4]);
        assert!(p.verify());
    }

    #[test]
    fn corruption_detected() {
        // 100 B runs the table path; 4 KiB the fold path where available.
        for len in [100u32, 4096] {
            let mut p = packet((0..len).map(|i| i as u8).collect::<Vec<u8>>());
            p.payload.make_mut()[42] ^= 0x80;
            assert!(!p.verify(), "{len} B payload bit flip");
            let mut q = packet((0..len).map(|i| i as u8).collect::<Vec<u8>>());
            q.dst_vaddr += 1;
            assert!(!q.verify(), "{len} B header flip");
        }
    }

    #[test]
    fn wire_bytes_include_overhead() {
        let p = packet(vec![0; 4096]);
        assert_eq!(p.wire_bytes(), 4096 + APE_PACKET_OVERHEAD);
        assert_eq!(p.len(), 4096);
        assert!(!p.is_empty());
        assert!(packet(vec![]).is_empty());
    }

    #[test]
    fn fragmentation_covers_message() {
        for len in [0u64, 1, 4095, 4096, 4097, 128 * 1024, 100_001] {
            let frags: Vec<(u64, u32)> = fragments(len).collect();
            let total: u64 = frags.iter().map(|&(_, l)| l as u64).sum();
            assert_eq!(total, len);
            // Contiguity.
            let mut expect = 0;
            for (off, l) in frags {
                assert_eq!(off, expect);
                assert!(l <= APE_MAX_PAYLOAD);
                expect = off + l as u64;
            }
        }
        assert_eq!(fragments(128 * 1024).count(), 32);
    }

    #[test]
    fn get_request_is_header_only_and_crc_covered() {
        let msg = MsgId {
            src_rank: 3,
            seq: 11,
        };
        let p = ApePacket::get_request(
            Coord::new(1, 1, 0),
            Coord::new(0, 0, 0),
            msg,
            0x7000_0000_2000,
            64 * 1024,
            0x7000_0000_9000,
        );
        assert!(p.is_get_request());
        assert!(p.is_empty());
        assert_eq!(p.wire_bytes(), APE_PACKET_OVERHEAD);
        assert!(p.verify());
        // Every GET-specific header bit is CRC-covered.
        let mut r = p.clone();
        r.get = Some(GetHeader {
            reply_vaddr: 0x7000_0000_9008,
        });
        assert!(!r.verify(), "reply_vaddr flip");
        let mut d = p.clone();
        d.get = None;
        assert!(!d.verify(), "GET request must not decay into a write");
        // And the reverse: a sealed write cannot gain a GET header.
        let w = ApePacket::new(p.dst, p.src, msg, p.dst_vaddr, 0, vec![]);
        let mut w2 = w.clone();
        w2.get = Some(GetHeader { reply_vaddr: 0 });
        assert!(!w2.verify(), "write must not decay into a GET request");
    }

    #[test]
    fn ecn_and_cnp_bits_are_crc_covered() {
        for len in [64u32, 4096] {
            ecn_and_cnp_bits_are_crc_covered_at(len);
        }
    }

    fn ecn_and_cnp_bits_are_crc_covered_at(len: u32) {
        let p = packet((0..len).map(|i| i as u8).collect::<Vec<u8>>());
        assert!(!p.ecn && !p.cnp);
        // Forging a mark without re-sealing is detected …
        let mut forged = p.clone();
        forged.ecn = true;
        assert!(!forged.verify(), "forged ECN mark");
        // … while a marking hop re-seals and stays valid.
        let mut marked = p.clone();
        marked.mark_ecn();
        assert!(marked.ecn && marked.verify());
        marked.mark_ecn(); // idempotent
        assert!(marked.verify());
        // Erasing a sealed mark is detected too.
        let mut erased = marked.clone();
        erased.ecn = false;
        assert!(!erased.verify(), "erased ECN mark");
        // A CNP echo is header-only, sealed, and cannot decay into (or
        // out of) a data frame.
        let c = ApePacket::cnp(p.src, p.dst, p.msg);
        assert!(c.is_cnp() && c.is_empty() && c.verify());
        assert_eq!(c.wire_bytes(), APE_PACKET_OVERHEAD);
        let mut d = c.clone();
        d.cnp = false;
        assert!(!d.verify(), "CNP must not decay into a write");
        let mut w = p.clone();
        w.cnp = true;
        assert!(!w.verify(), "write must not decay into a CNP");
    }

    #[test]
    fn crc_reference_value() {
        // Standard check value: CRC-32("123456789") = 0xCBF43926.
        let mut c = Crc32::new();
        c.update(b"123456789");
        assert_eq!(c.finish(), 0xCBF4_3926);
    }

    /// The fold path must give the table path's register for every
    /// length, alignment and starting register, including the lengths on
    /// either side of the 128 B dispatch threshold and of 4 KiB packets.
    #[test]
    fn fold_path_matches_table_path() {
        use apenet_sim::check;
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("pclmulqdq") {
            // Otherwise `update` would silently fall back to the table,
            // and this test would compare the table with itself.
            assert!(clmul::available(), "PCLMULQDQ host must take the fold path");
        }
        check::cases("fold crc == table crc", 64, |g| {
            let buf = g.bytes(9016, 9016);
            let random_len = g.usize(0, 9001);
            for len in [127, 128, 129, 4095, 4096, 4097, 8192, random_len] {
                let off = g.usize(0, 17);
                let data = &buf[off..off + len];
                let state = g.rng().next_u64() as u32;
                let mut fold = Crc32 { state };
                fold.update(data);
                let mut table = Crc32 { state };
                table.update_table(data);
                assert_eq!(fold.state, table.state, "len {len} at offset {off}");
            }
        });
    }

    /// Adversarial CRC property: every corruption class the link layer's
    /// fault injector can produce (and several it can't) must flip
    /// `verify()` to false. CRC-32 detects all single-bit and all
    /// burst-≤32-bit errors by construction; the random multi-bit cases
    /// ride on the seeded property harness so a miss would replay.
    #[test]
    fn adversarial_corruption_is_always_detected() {
        use apenet_sim::check;
        check::cases("crc catches corruption", 128, |g| {
            let payload = g.bytes(1, 4096);
            corruptions_are_detected(g, packet(payload));
            // An odd-offset view of a larger buffer: unaligned fold loads.
            let big = PayloadSlice::from_vec(g.bytes(8192, 8192));
            let len = g.usize(1, APE_MAX_PAYLOAD as usize + 1);
            let off = 2 * g.usize(0, 2048) + 1;
            corruptions_are_detected(g, packet(big.narrow(off, len)));
        });
    }

    fn corruptions_are_detected(g: &mut apenet_sim::check::Gen, p: ApePacket) {
        assert!(p.verify());

        // Single-bit flip at a random position.
        let mut single = p.clone();
        let idx = g.usize(0, single.payload.len());
        single.payload.make_mut()[idx] ^= 1 << g.u32(0, 8);
        assert!(!single.verify(), "single-bit flip at byte {idx}");

        // Multi-bit: 2–8 independent random flips.
        let mut multi = p.clone();
        for _ in 0..g.usize(2, 9) {
            let i = g.usize(0, multi.payload.len());
            multi.payload.make_mut()[i] ^= (g.byte() | 1).rotate_left(g.u32(0, 8));
        }
        // Flips can cancel pairwise; force at least one net change.
        if multi.payload.as_slice() == p.payload.as_slice() {
            multi.payload.make_mut()[0] ^= 0xFF;
        }
        assert!(!multi.verify(), "multi-bit flips");

        // Burst: 1–4 contiguous bytes overwritten.
        let mut burst = p.clone();
        let n = g.usize(1, 5.min(burst.payload.len() + 1));
        let start = g.usize(0, burst.payload.len() - n + 1);
        let mut changed = false;
        for i in start..start + n {
            let b = g.byte();
            let s = burst.payload.make_mut();
            changed |= s[i] != b;
            s[i] = b;
        }
        if changed {
            assert!(!burst.verify(), "burst of {n} at {start}");
        }

        // Truncation: drop trailing bytes (header msg_len unchanged).
        if p.payload.len() > 1 {
            let keep = g.usize(1, p.payload.len());
            let trunc = ApePacket {
                payload: Vec::from(&p.payload.as_slice()[..keep]).into(),
                ..p.clone()
            };
            assert!(!trunc.verify(), "truncated to {keep} bytes");
        }

        // Extension: append garbage.
        let mut extended = Vec::from(p.payload.as_slice());
        extended.extend(g.bytes(1, 32));
        let ext = ApePacket {
            payload: extended.into(),
            ..p.clone()
        };
        assert!(!ext.verify(), "extended payload");

        // Header corruption: each addressed field in turn.
        let mut h = p.clone();
        h.dst_vaddr ^= 1 << g.u32(0, 48);
        assert!(!h.verify(), "dst_vaddr flip");
        let mut m = p.clone();
        m.msg.seq ^= 1 << g.u32(0, 63);
        assert!(!m.verify(), "msg seq flip");
        let mut l = p.clone();
        l.msg_len ^= 1 << g.u32(0, 32);
        assert!(!l.verify(), "msg_len flip");
        let mut e = p.clone();
        e.ecn = !e.ecn;
        assert!(!e.verify(), "ecn flip");
        let mut cn = p.clone();
        cn.cnp = !cn.cnp;
        assert!(!cn.verify(), "cnp flip");
    }
}

//! The byte layer under every on-disk format: the little-endian [`Enc`] /
//! [`Dec`], the CRC32, and the one frame layer the formats share. A
//! *frame* is a body closed by a 4-byte trailer holding the CRC32 of the
//! body; the WAL header, every WAL record, the checkpoint sidecar and every
//! epoch block is one. [`FrameWriter::finish`] is the only writer of a
//! trailer — [`seal`] closes a frame built in memory through it — and
//! [`open`] is the only check of one. The layouts themselves are tabled in the crate docs
//! (*On-disk formats*).

use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use super::WalError;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected), hand-rolled — no external crates.

/// The CRC polynomial, reflected: bit 31 holds the coefficient of x⁰.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic bytewise table and
/// `CRC_TABLES[k][i]` is the CRC of byte `i` followed by `k` zero bytes, so
/// [`step8`] folds eight input bytes into the state with eight independent
/// lookups. Each step still waits on the previous one's loads, so
/// [`crc32_extend`] runs [`LANES`] chains side by side.
pub(super) static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

/// Independent CRC chains [`crc32_extend`] interleaves. On an x86-64-v3
/// VM four ran at 4.0–4.8 GB/s against 1.2–1.5 GB/s for one chain; two,
/// three, five, six and eight all ran slower than four.
const LANES: usize = 4;

/// Inputs shorter than this run one chain. The lane join costs ≈120 ns,
/// so on the VM above the lanes break even only near 400 bytes; at 1 KiB
/// they take half the time of one chain.
const LANE_MIN: usize = 1024;

/// IEEE CRC32 of `bytes` (the polynomial used by zip/PNG/Ethernet).
pub(super) fn crc32(bytes: &[u8]) -> u32 {
    crc32_extend(0, bytes)
}

/// The inverted CRC register `c` after the 8 bytes `w`.
#[inline(always)]
fn step8(c: u32, w: &[u8; 8]) -> u32 {
    let t = &CRC_TABLES;
    let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// CRC32 of `a ‖ bytes` given `crc = crc32(a)`, so a checksum can cover
/// data that passes in pieces. An input of at least [`LANE_MIN`] bytes is
/// cut into [`LANES`] equal lanes, each a multiple of 8 bytes, whose
/// chains run interleaved in one loop; lane 0 continues `crc`, the others
/// start afresh, and they are joined the way [`crc32_combine`] joins two
/// checksums. One chain finishes the tail.
pub(super) fn crc32_extend(crc: u32, bytes: &[u8]) -> u32 {
    let (mut crc, mut rest) = (crc, bytes);
    if bytes.len() >= LANE_MIN {
        let lane = bytes.len() / LANES / 8 * 8;
        let (body, tail) = bytes.split_at(lane * LANES);
        let lanes: [&[[u8; 8]]; LANES] =
            std::array::from_fn(|i| body[i * lane..][..lane].as_chunks().0);
        let mut c = [!0; LANES];
        c[0] = !crc;
        for k in 0..lane / 8 {
            for (ci, words) in c.iter_mut().zip(&lanes) {
                *ci = step8(*ci, &words[k]);
            }
        }
        let shift = x8n_mod_p(lane as u64);
        crc = c[1..].iter().fold(!c[0], |joined, &ci| mul_mod_p(shift, joined) ^ !ci);
        rest = tail;
    }
    let mut c = !crc;
    let (words, tail) = rest.as_chunks::<8>();
    for w in words {
        c = step8(c, w);
    }
    for &b in tail {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// `a·b` modulo the CRC polynomial, both in its reflected representation
/// (zlib's `multmodp`).
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut i = 0;
    while i < 32 {
        // Bit 31 - i of `a` is the coefficient of x^i; `b` is b·x^i.
        product ^= b & 0u32.wrapping_sub((a >> (31 - i)) & 1);
        b = (b >> 1) ^ (POLY & 0u32.wrapping_sub(b & 1));
        i += 1;
    }
    product
}

/// `X2N[k]` is x^(2^k) modulo the polynomial. The polynomial is
/// irreducible, so x^(2^32) is x again and the table wraps at 32.
static X2N: [u32; 32] = x2n_table();

const fn x2n_table() -> [u32; 32] {
    let mut table = [0u32; 32];
    let mut p = 1 << 30; // x¹
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = mul_mod_p(p, p);
        k += 1;
    }
    table
}

/// x^(8n) modulo the polynomial: the factor a CRC gains over `n` zero
/// bytes (zlib's `x2nmodp(n, 3)`).
fn x8n_mod_p(mut n: u64) -> u32 {
    let mut p = 1 << 31; // x⁰
    let mut k = 3;
    while n != 0 {
        if n & 1 != 0 {
            p = mul_mod_p(X2N[k % 32], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// CRC32 of `a ‖ b` from `crc_a = crc32(a)`, `crc_b = crc32(b)` and
/// `len_b = b.len()`, without reading either (zlib's `crc32_combine`).
/// Running `crc_a` over `len_b` zero bytes multiplies it by
/// x^(8·len_b) modulo the polynomial, so a file's checksum can chain the
/// stored checksums of blocks it never reads, and [`crc32_extend`] joins
/// its lanes the same way.
pub(super) fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    mul_mod_p(x8n_mod_p(len_b), crc_a) ^ crc_b
}

// ---------------------------------------------------------------------------
// Frames.

/// Bytes of the CRC32 trailer that closes every frame.
pub(crate) const CRC_LEN: usize = 4;

/// Close the frame whose body is `buf[start..]`, built in memory: append
/// the body's CRC32 as the trailer, as [`FrameWriter::finish`] does, and
/// return it.
pub(crate) fn seal(buf: &mut Vec<u8>, start: usize) -> u32 {
    let crc = crc32(&buf[start..]);
    // Appending to a `Vec` cannot fail.
    let _ = FrameWriter { out: buf, crc }.finish();
    crc
}

/// Streams one frame to `out`: each body byte is CRC'd as it passes, and
/// [`finish`](Self::finish) appends the trailer. A body too large to copy
/// (a checkpoint's engine state) reaches the file as it is.
pub(crate) struct FrameWriter<W> {
    out: W,
    crc: u32,
}

impl<W: Write> FrameWriter<W> {
    pub(crate) fn new(out: W) -> Self {
        FrameWriter { out, crc: 0 }
    }

    /// Append the CRC32 of every byte written and hand `out` back. The
    /// one place a trailer is written.
    pub(crate) fn finish(mut self) -> io::Result<W> {
        self.out.write_all(&self.crc.to_le_bytes())?;
        Ok(self.out)
    }
}

impl<W: Write> Write for FrameWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.out.write(buf)?;
        self.crc = crc32_extend(self.crc, &buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// The body of `frame` (a body and its CRC32 trailer), once the trailer
/// checks out.
pub(crate) fn open(frame: &[u8]) -> Result<&[u8], String> {
    let Some((body, stored)) = frame.split_last_chunk::<CRC_LEN>() else {
        return Err(format!("{} bytes hold no checksum", frame.len()));
    };
    if crc32(body) != u32::from_le_bytes(*stored) {
        return Err("checksum mismatch".to_string());
    }
    Ok(body)
}

/// The CRC32 trailer of the frame in `src` that ends at byte `end`, read
/// without its body.
pub(crate) fn read_trailer<R: Read + Seek>(src: &mut R, end: u64) -> io::Result<u32> {
    let mut stored = [0u8; CRC_LEN];
    src.seek(SeekFrom::Start(end - CRC_LEN as u64))?;
    src.read_exact(&mut stored)?;
    Ok(u32::from_le_bytes(stored))
}

/// A *body chain*: the CRC32 of a file's bytes with every frame trailer
/// left out. Over the trailers too it would bind nothing: a CRC appended
/// to its data cancels the data out of the running register, so a frame
/// swapped for any other well-formed one of the same length would keep
/// it. This starts a chain over `head`, bytes that no trailer closes.
pub(crate) fn chain_head(head: &[u8]) -> u32 {
    crc32(head)
}

/// Extend the body chain `crc` over the next frame, `frame_len` bytes long
/// with trailer `stored`, without reading its body.
pub(crate) fn chain_frame(crc: u32, frame_len: u64, stored: u32) -> u32 {
    crc32_combine(crc, stored, frame_len - CRC_LEN as u64)
}

// ---------------------------------------------------------------------------
// File heads and prefixes.

/// Check that `head` opens with `magic` and then the fingerprint of session
/// `fingerprint`, as a checkpoint sidecar and a frozen-epoch file do. A
/// short head or another magic is [`WalError::Corrupt`]; another session's
/// fingerprint is [`WalError::Mismatch`].
pub(crate) fn check_head(head: &[u8], magic: &[u8; 8], fingerprint: u64) -> Result<(), WalError> {
    let found = match head.split_first_chunk::<8>() {
        Some((found, rest)) if found == magic => Dec::new(rest).u64(),
        _ => Err(format!("bad magic {:02x?}", &head[..head.len().min(8)])),
    };
    let found = found.map_err(|detail| WalError::Corrupt { offset: 0, detail })?;
    if found != fingerprint {
        return Err(WalError::Mismatch {
            detail: format!("fingerprint {found:#018x} does not match session {fingerprint:#018x}"),
        });
    }
    Ok(())
}

/// The file at `path`, opened to read (and to `write`), or `None` if there
/// is none.
pub(crate) fn open_existing(path: &Path, write: bool) -> io::Result<Option<fs::File>> {
    match fs::OpenOptions::new().read(true).write(write).open(path) {
        Ok(file) => Ok(Some(file)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// The first `len` bytes of `file`, or all of it for `None`, read into a
/// buffer sized from the file's length: a length field read from untrusted
/// bytes never reserves more than the file holds. A file shorter than
/// `len` is [`io::ErrorKind::UnexpectedEof`].
pub(crate) fn read_prefix(file: fs::File, len: Option<u64>) -> io::Result<Vec<u8>> {
    let size = file.metadata()?.len();
    let len = len.unwrap_or(size);
    let short = |detail: String| io::Error::new(io::ErrorKind::UnexpectedEof, detail);
    if size < len {
        return Err(short(format!("file is {size} bytes, shorter than the {len} referenced")));
    }
    let mut bytes = Vec::with_capacity(usize::try_from(len).map_err(io::Error::other)?);
    file.take(len).read_to_end(&mut bytes)?;
    if (bytes.len() as u64) < len {
        return Err(short("file shrank while being read".to_string()));
    }
    Ok(bytes)
}

// ---------------------------------------------------------------------------
// Little-endian encode/decode helpers (shared with engine checkpoints).

/// Append-only little-endian byte encoder.
#[derive(Debug, Default)]
pub(crate) struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Cursor-style little-endian decoder with descriptive errors.
#[derive(Debug)]
pub(crate) struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    /// The next `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.bytes.len() - self.pos < n {
            return Err(format!(
                "unexpected end of data: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.bytes.len() - self.pos
            ));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes, by value.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        self.array().map(u32::from_le_bytes)
    }
    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        self.array().map(u64::from_le_bytes)
    }
    pub(crate) fn usize(&mut self) -> Result<usize, String> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| format!("value {v} does not fit in usize"))
    }
    pub(crate) fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A column of the next `n` values of `N` bytes each, taken in one
    /// piece and read by `from` (`u32::from_le_bytes`, …).
    pub(crate) fn column<const N: usize, T, F: Fn([u8; N]) -> T + 'a>(
        &mut self,
        n: usize,
        from: F,
    ) -> Result<impl Iterator<Item = T> + 'a, String> {
        let bytes = self.take(n.checked_mul(N).ok_or("column length overflows")?)?;
        Ok(bytes.as_chunks::<N>().0.iter().map(move |c| from(*c)))
    }

    /// Bytes left to decode. Decoders cap any reservation sized by an
    /// untrusted count with it, so a crafted count cannot over-allocate.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Take every byte left.
    pub(crate) fn rest(&mut self) -> &'a [u8] {
        let rest = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        rest
    }

    /// Assert the payload was consumed exactly.
    pub(crate) fn finish(&self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes after payload", self.bytes.len() - self.pos))
        }
    }
}

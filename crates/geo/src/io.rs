//! Plain-text persistence for gridded databases.
//!
//! A deliberately simple, dependency-free line format so released synthetic
//! databases can be handed to downstream tooling (or reloaded for later
//! historical analysis). Uniform-grid databases use the v1 format:
//!
//! ```text
//! retrasyn-gridded v1 k=<K> horizon=<T>
//! <id> <start> <cell> <cell> …
//! …
//! ```
//!
//! Quad-tree databases carry their leaf set so the topology round-trips:
//!
//! ```text
//! retrasyn-quad v1 depth=<D> leaves=<L> horizon=<T>
//! <x> <y> <depth>      (one line per leaf, canonical order)
//! <id> <start> <cell> <cell> …
//! …
//! ```
//!
//! Cells are dense indices. The bounding box is not persisted — readers
//! get the unit square; re-discretize against the original box to recover
//! continuous centers.
//!
//! The reader compiles the header's grid before the first body line, so
//! a uniform header's `K` is capped at [`MAX_GRIDDED_K`] and a quad
//! header's leaf count at [`MAX_QUAD_LEAVES`]: a few bytes of header cannot
//! ask for a grid larger than that. Any grid is written, but only one
//! within the caps reads back.
//!
//! The parser streams straight into the columnar layout
//! ([`GriddedDataset::from_columns`]): ids, starts, offsets and cells are
//! appended as lines arrive and validated inline, so loading never
//! materializes one owned `Vec` per stream.

use crate::grid::CellId;
use crate::gridded::GriddedDataset;
use crate::space::{QuadGrid, QuadLeaf, Space, SpaceDescriptor, Topology, UniformGrid};
use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

/// Serialize a gridded database to a writer (format chosen by the
/// dataset's topology descriptor).
pub fn write_gridded<W: Write>(dataset: &GriddedDataset, writer: &mut W) -> io::Result<()> {
    match dataset.topology().descriptor() {
        SpaceDescriptor::Uniform { k, .. } => {
            writeln!(writer, "retrasyn-gridded v1 k={k} horizon={}", dataset.horizon())?;
        }
        SpaceDescriptor::Quad { depth, leaves, .. } => {
            writeln!(
                writer,
                "retrasyn-quad v1 depth={depth} leaves={} horizon={}",
                leaves.len(),
                dataset.horizon()
            )?;
            for l in leaves {
                writeln!(writer, "{} {} {}", l.x, l.y, l.depth)?;
            }
        }
    }
    for s in dataset.iter() {
        write!(writer, "{} {}", s.id, s.start)?;
        for c in s.cells {
            write!(writer, " {}", c.0)?;
        }
        writeln!(writer)?;
    }
    Ok(())
}

/// Serialize to a file path.
pub fn save_gridded<P: AsRef<Path>>(dataset: &GriddedDataset, path: P) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    write_gridded(dataset, &mut w)?;
    w.flush()
}

/// The largest uniform-grid `K` [`read_gridded`] accepts: 1024, a grid of
/// ≈1M cells whose topology compiles in well under a second. Past it the
/// header alone would size the tables (`K = 65535` is ≈4.3G cells), so a
/// larger `K` is an error before anything is allocated.
pub const MAX_GRIDDED_K: u32 = 1024;

/// The most leaves a quad header may name for [`read_gridded`]: 16 384,
/// a full depth-7 tree (4⁷). Compiling a quad topology compares every
/// pair of leaves, so the count bounds the load time: at the cap the
/// compile takes 0.34–0.45 s in release on a 2-vCPU VM, and 4× the leaves
/// take ≈16× as long. A larger count is an error before any leaf line is
/// read.
pub const MAX_QUAD_LEAVES: usize = 16_384;

fn parse_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Deserialize a gridded database from a reader (unit-square space).
/// Dispatches on the header: `retrasyn-gridded v1` (uniform grid) or
/// `retrasyn-quad v1` (quad tree with an explicit leaf set).
pub fn read_gridded<R: BufRead>(reader: R) -> io::Result<GriddedDataset> {
    let mut lines = reader.lines();
    let header = lines.next().ok_or_else(|| parse_err("empty input"))??;
    let mut parts = header.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some("retrasyn-gridded"), Some("v1")) => {
            let mut k: Option<u32> = None;
            let mut horizon: Option<u64> = None;
            for field in parts {
                if let Some(v) = field.strip_prefix("k=") {
                    k = Some(v.parse().map_err(|_| parse_err("bad k"))?);
                } else if let Some(v) = field.strip_prefix("horizon=") {
                    horizon = Some(v.parse().map_err(|_| parse_err("bad horizon"))?);
                }
            }
            let k = k.ok_or_else(|| parse_err("missing k"))?;
            if !(1..=MAX_GRIDDED_K).contains(&k) {
                return Err(parse_err(format!("k={k} out of range [1, {MAX_GRIDDED_K}]")));
            }
            let horizon = horizon.ok_or_else(|| parse_err("missing horizon"))?;
            let topology = UniformGrid::unit(k).compile_shared();
            read_streams_columnar(lines, topology, horizon, 2)
        }
        (Some("retrasyn-quad"), Some("v1")) => {
            let mut depth: Option<u8> = None;
            let mut leaves_n: Option<usize> = None;
            let mut horizon: Option<u64> = None;
            for field in parts {
                if let Some(v) = field.strip_prefix("depth=") {
                    depth = Some(v.parse().map_err(|_| parse_err("bad depth"))?);
                } else if let Some(v) = field.strip_prefix("leaves=") {
                    leaves_n = Some(v.parse().map_err(|_| parse_err("bad leaves"))?);
                } else if let Some(v) = field.strip_prefix("horizon=") {
                    horizon = Some(v.parse().map_err(|_| parse_err("bad horizon"))?);
                }
            }
            let depth = depth.ok_or_else(|| parse_err("missing depth"))?;
            let leaves_n = leaves_n.ok_or_else(|| parse_err("missing leaves"))?;
            if leaves_n > MAX_QUAD_LEAVES {
                return Err(parse_err(format!("leaves={leaves_n} exceeds {MAX_QUAD_LEAVES}")));
            }
            let horizon = horizon.ok_or_else(|| parse_err("missing horizon"))?;
            // Grown line by line: the header's count is untrusted.
            let mut leaves = Vec::new();
            for i in 0..leaves_n {
                let line = lines
                    .next()
                    .ok_or_else(|| parse_err(format!("missing leaf line {}", i + 2)))??;
                let mut f = line.split_whitespace();
                let x: u32 = f
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| parse_err(format!("line {}: bad leaf x", i + 2)))?;
                let y: u32 = f
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| parse_err(format!("line {}: bad leaf y", i + 2)))?;
                let d: u8 = f
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| parse_err(format!("line {}: bad leaf depth", i + 2)))?;
                leaves.push(QuadLeaf { x, y, depth: d });
            }
            let quad = QuadGrid::try_from_leaves(crate::point::BoundingBox::unit(), depth, leaves)
                .map_err(parse_err)?;
            let topology = quad.compile_shared();
            read_streams_columnar(lines, topology, horizon, leaves_n + 2)
        }
        _ => {
            Err(parse_err("bad header (expected 'retrasyn-gridded v1 …' or 'retrasyn-quad v1 …')"))
        }
    }
}

/// Stream the `<id> <start> <cell>…` body straight into the columnar
/// layout, validating ranges, adjacency and the horizon inline.
fn read_streams_columnar<B: Iterator<Item = io::Result<String>>>(
    lines: B,
    topology: Arc<Topology>,
    horizon: u64,
    first_lineno: usize,
) -> io::Result<GriddedDataset> {
    let num_cells = topology.num_cells();
    let mut ids = Vec::new();
    let mut starts = Vec::new();
    let mut offsets = vec![0usize];
    let mut cells: Vec<CellId> = Vec::new();
    for (i, line) in lines.enumerate() {
        let lineno = first_lineno + i;
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let id: u64 = fields
            .next()
            .ok_or_else(|| parse_err(format!("line {lineno}: missing id")))?
            .parse()
            .map_err(|_| parse_err(format!("line {lineno}: bad id")))?;
        let start: u64 = fields
            .next()
            .ok_or_else(|| parse_err(format!("line {lineno}: missing start")))?
            .parse()
            .map_err(|_| parse_err(format!("line {lineno}: bad start")))?;
        let stream_base = cells.len();
        let mut prev: Option<CellId> = None;
        for f in fields {
            let raw: u32 = f.parse().map_err(|_| parse_err(format!("line {lineno}: bad cell")))?;
            if raw as usize >= num_cells {
                return Err(parse_err(format!(
                    "line {lineno}: cell {raw} out of range for {num_cells} cells"
                )));
            }
            let c = CellId(raw);
            if let Some(p) = prev {
                if !topology.are_adjacent(p, c) {
                    return Err(parse_err(format!("stream {id}: non-adjacent move")));
                }
            }
            cells.push(c);
            prev = Some(c);
        }
        let n = cells.len() - stream_base;
        if n == 0 {
            return Err(parse_err(format!("line {lineno}: stream with no cells")));
        }
        if start.checked_add(n as u64).is_none_or(|end| end > horizon) {
            return Err(parse_err(format!("stream {id} exceeds horizon")));
        }
        ids.push(id);
        starts.push(start);
        offsets.push(cells.len());
    }
    Ok(GriddedDataset::from_columns(topology, ids, starts, offsets, cells, horizon))
}

/// Deserialize from a file path.
pub fn load_gridded<P: AsRef<Path>>(path: P) -> io::Result<GriddedDataset> {
    read_gridded(io::BufReader::new(std::fs::File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gridded::GriddedStream;
    use crate::point::{BoundingBox, Point};

    fn sample() -> GriddedDataset {
        let grid = UniformGrid::unit(4);
        GriddedDataset::from_streams(
            grid.clone(),
            vec![
                GriddedStream {
                    id: 3,
                    start: 1,
                    cells: vec![grid.cell_at(0, 0), grid.cell_at(1, 1)],
                },
                GriddedStream { id: 9, start: 0, cells: vec![grid.cell_at(3, 3)] },
            ],
            5,
        )
    }

    #[test]
    fn roundtrip() {
        let ds = sample();
        let mut buf = Vec::new();
        write_gridded(&ds, &mut buf).unwrap();
        let loaded = read_gridded(io::BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(loaded.horizon(), 5);
        assert_eq!(loaded.topology().uniform_k(), Some(4));
        assert_eq!(loaded, ds);
    }

    #[test]
    fn quad_roundtrip() {
        let pts: Vec<Point> = (0..300).map(|i| Point::new((i % 30) as f64 / 30.0, 0.1)).collect();
        let quad = QuadGrid::fit(BoundingBox::unit(), &pts, 25, 3);
        let topo = quad.compile_shared();
        // A short stream hopping between two adjacent leaves.
        let c0 = topo.cell_of(&Point::new(0.1, 0.05));
        let pick = *topo.neighbors(c0).last().unwrap();
        let ds = GriddedDataset::from_streams(
            Arc::clone(&topo),
            vec![GriddedStream { id: 1, start: 0, cells: vec![c0, pick, c0] }],
            4,
        );
        let mut buf = Vec::new();
        write_gridded(&ds, &mut buf).unwrap();
        let loaded = read_gridded(io::BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(loaded, ds);
        assert_eq!(loaded.topology().num_cells(), quad.num_leaves());
    }

    #[test]
    fn file_roundtrip() {
        let ds = sample();
        let dir = std::env::temp_dir().join("retrasyn_geo_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("release.txt");
        save_gridded(&ds, &path).unwrap();
        let loaded = load_gridded(&path).unwrap();
        assert_eq!(loaded, ds);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn invalid(text: &str) -> io::Error {
        let err = read_gridded(io::BufReader::new(text.as_bytes())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{text:?}: {err}");
        err
    }

    #[test]
    fn rejects_bad_header() {
        invalid("nonsense v1 k=4 horizon=5\n");
        invalid("retrasyn-gridded v1 horizon=5\n");
        // K outside the reader's range [1, MAX_GRIDDED_K].
        assert!(invalid("retrasyn-gridded v1 k=0 horizon=5\n").to_string().contains("k=0"));
        invalid("retrasyn-gridded v1 k=65536 horizon=5\n");
        invalid("retrasyn-gridded v1 k=4294967296 horizon=5\n");
    }

    /// A header naming a grid past the cap is an error before the grid is
    /// compiled: a 40-byte `k=65535` file would otherwise ask for ≈4.3G
    /// cells. The cap itself still reads.
    #[test]
    fn rejects_oversized_grid_before_compiling_it() {
        let header = "retrasyn-gridded v1 k=65535 horizon=5\n";
        assert!(header.len() <= 40);
        let err = invalid(header);
        assert!(err.to_string().contains("k=65535"), "{err}");
        let past = format!("retrasyn-gridded v1 k={} horizon=5\n0 0 0\n", MAX_GRIDDED_K + 1);
        invalid(&past);
        let at = format!("retrasyn-gridded v1 k={MAX_GRIDDED_K} horizon=5\n0 0 0 1\n");
        let ds = read_gridded(io::BufReader::new(at.as_bytes())).unwrap();
        assert_eq!(ds.topology().uniform_k(), Some(MAX_GRIDDED_K));
        assert_eq!(ds.num_streams(), 1);
    }

    /// A quad header naming more leaves than the cap is an error before a
    /// leaf line is read; the cap is a full depth-7 tree.
    #[test]
    fn rejects_oversized_quad_before_reading_leaves() {
        assert_eq!(MAX_QUAD_LEAVES, 4usize.pow(7));
        let past = format!("retrasyn-quad v1 depth=7 leaves={} horizon=2\n", MAX_QUAD_LEAVES + 1);
        let err = invalid(&past);
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn rejects_out_of_range_cell() {
        let bad = "retrasyn-gridded v1 k=2 horizon=3\n0 0 7\n";
        let err = read_gridded(io::BufReader::new(bad.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn rejects_non_adjacent_stream() {
        // Cells 0 and 15 in a 4x4 grid are not adjacent.
        let bad = "retrasyn-gridded v1 k=4 horizon=3\n0 0 0 15\n";
        let err = read_gridded(io::BufReader::new(bad.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("non-adjacent"));
    }

    #[test]
    fn rejects_horizon_overflow() {
        let err = invalid("retrasyn-gridded v1 k=4 horizon=1\n0 0 0 1\n");
        assert!(err.to_string().contains("horizon"));
        // `start + len` past u64::MAX must not wrap back under the horizon.
        let err = invalid("retrasyn-gridded v1 k=4 horizon=5\n1 18446744073709551615 0\n");
        assert!(err.to_string().contains("horizon"));
    }

    #[test]
    fn rejects_bad_quad_leaf_set() {
        // Three depth-1 leaves: a hole.
        let err =
            invalid("retrasyn-quad v1 depth=1 leaves=3 horizon=2\n0 0 1\n1 0 1\n0 1 1\n0 0 0\n");
        assert!(err.to_string().contains("quad"));
        // A leaf count no input backs: nothing is reserved from it.
        let err = invalid(&format!(
            "retrasyn-quad v1 depth=1 leaves={MAX_QUAD_LEAVES} horizon=2\n0 0 1\n"
        ));
        assert!(err.to_string().contains("missing leaf line"));
        invalid("retrasyn-quad v1 depth=1 leaves=18446744073709551615 horizon=2\n0 0 1\n");
        // A leaf anchored at the edge of u32 overflows no bounds check.
        invalid("retrasyn-quad v1 depth=1 leaves=2 horizon=2\n4294967295 0 1\n0 0 1\n");
    }

    #[test]
    fn skips_blank_lines() {
        let ok = "retrasyn-gridded v1 k=2 horizon=2\n\n0 0 0 1\n\n";
        let ds = read_gridded(io::BufReader::new(ok.as_bytes())).unwrap();
        assert_eq!(ds.num_streams(), 1);
    }

    /// Header values: small valid ones, the edges of every field's type,
    /// and malformed numbers. Valid K stay small (a K×K grid compiles
    /// K² cells); `65535` is past the reader's cap. [`token`] adds one
    /// more: the first leaf count past [`MAX_QUAD_LEAVES`].
    const TOKENS: [&str; 15] = [
        "0",
        "1",
        "2",
        "3",
        "5",
        "8",
        "65535",
        "65536",
        "4294967295",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "-1",
        "x",
        "",
    ];
    const FIELDS: [&str; 4] = ["k", "depth", "leaves", "horizon"];

    /// Token `i`: [`TOKENS`], then `MAX_QUAD_LEAVES + 1`.
    fn token(i: usize) -> String {
        TOKENS.get(i).map_or((MAX_QUAD_LEAVES + 1).to_string(), |t| t.to_string())
    }

    proptest::proptest! {
        /// Arbitrary header fields plus body lines: the reader returns
        /// `Ok` or `Err`, never panics.
        #[test]
        fn parser_never_panics_on_arbitrary_input(
            quad in 0u8..2,
            header in proptest::prop::collection::vec(
                (0usize..FIELDS.len(), 0usize..=TOKENS.len()),
                0..6,
            ),
            body in proptest::prop::collection::vec(
                proptest::prop::collection::vec(0usize..=TOKENS.len(), 0..5),
                0..6,
            ),
        ) {
            let mut text =
                String::from(if quad == 1 { "retrasyn-quad v1" } else { "retrasyn-gridded v1" });
            for (field, value) in header {
                text += &format!(" {}={}", FIELDS[field], token(value));
            }
            for line in body {
                let tokens: Vec<String> = line.into_iter().map(token).collect();
                text += &format!("\n{}", tokens.join(" "));
            }
            if let Ok(ds) = read_gridded(io::BufReader::new(text.as_bytes())) {
                proptest::prop_assert!(ds.iter().all(|s| s.end() < ds.horizon()));
            }
        }
    }
}

//! Plain-CSV dataset I/O.
//!
//! BIRCH is a *database* clustering method: real deployments read points
//! from flat files or cursors, not in-memory vectors. This module gives
//! the workspace (and its CLI/examples) a dependency-free interchange
//! format:
//!
//! ```text
//! x0,x1,...,xd-1[,label]
//! ```
//!
//! with an optional integer label column (ground truth; empty = noise).
//!
//! Reading is block-buffered and chunk-parallel (DESIGN.md §14). A regular
//! file of 512 KiB or more is cut into one byte range per available CPU,
//! each cut just after a `'\n'`. The first range is handled on the
//! calling thread, the others on scoped workers, in two passes over 1 MiB
//! blocks. A newline count gives every range its first file row and one
//! output slot per line. Then each range parses its lines into its own
//! slots: UTF-8 is validated once per block and each line is tokenized in
//! place, so the only allocation per row is the point's coordinates,
//! sized exactly. Blank lines leave empty slots, dropped at the end
//! without a copy. Errors name the 1-based row in the file, and the
//! earliest malformed row wins. Anything that is not a regular file (a
//! pipe, `/dev/stdin`) is one range, parsed as a stream in one pass.

use birch_core::{Point, PointError};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::iter;
use std::path::Path;
use std::thread;

/// Files smaller than this are parsed as one chunk. Below it, chunks
/// measured no faster (slower under about 300 KB) and 1.2–1.6 MB heavier
/// in peak RSS, the cost of the workers' threads and allocator arenas;
/// from about 600 KB up they measured 0.64–0.65× the one-chunk time
/// on two CPUs (DESIGN.md §14.1).
const PARALLEL_MIN_BYTES: u64 = 512 << 10;

/// Bytes read per block.
const BLOCK_BYTES: usize = 1 << 20;

/// Points plus (when requested) per-point ground-truth labels.
pub type LabeledPoints = (Vec<Point>, Option<Vec<Option<usize>>>);

/// Writes points (and optional labels) to a CSV file.
///
/// # Errors
///
/// Propagates file-creation and write errors.
///
/// # Panics
///
/// Panics if `labels` is provided with a mismatched length.
pub fn write_points(
    path: &Path,
    points: &[Point],
    labels: Option<&[Option<usize>]>,
) -> io::Result<()> {
    if let Some(l) = labels {
        assert_eq!(l.len(), points.len(), "labels/points length mismatch");
    }
    let mut out = BufWriter::new(File::create(path)?);
    for (i, p) in points.iter().enumerate() {
        let mut first = true;
        for c in p.iter() {
            if !first {
                out.write_all(b",")?;
            }
            write!(out, "{c}")?;
            first = false;
        }
        if let Some(l) = labels {
            match l[i] {
                Some(v) => write!(out, ",{v}")?,
                None => out.write_all(b",")?,
            }
        }
        out.write_all(b"\n")?;
    }
    out.flush()
}

/// Reads points (and labels, when `labeled` is true) from a CSV file.
///
/// # Errors
///
/// Returns an I/O error for file problems, or `InvalidData` for malformed
/// rows (wrong arity, unparsable numbers, no coordinates, or a NaN/±∞
/// coordinate — named by its 1-based row and column) and for input that
/// is not UTF-8.
pub fn read_points(path: &Path, labeled: bool) -> io::Result<LabeledPoints> {
    let file = File::open(path)?;
    let len = regular_len(&file)?;
    let chunks = match len {
        Some(len) if len >= PARALLEL_MIN_BYTES => {
            thread::available_parallelism().map_or(1, usize::from)
        }
        _ => 1,
    };
    read_file(path, file, len, labeled, chunks)
}

/// [`read_points`] with the chunk count forced to `chunks` (no size floor).
#[cfg(test)]
pub(crate) fn read_with_chunks(
    path: &Path,
    labeled: bool,
    chunks: usize,
) -> io::Result<LabeledPoints> {
    let file = File::open(path)?;
    let len = regular_len(&file)?;
    read_file(path, file, len, labeled, chunks)
}

/// The file's length if it is a regular file with content; `None` for a
/// stream. Some special files (procfs, sysfs, some FUSE mounts) report
/// length 0 but have content, so they are read as streams too; an empty
/// regular file reads the same either way.
fn regular_len(file: &File) -> io::Result<Option<u64>> {
    let meta = file.metadata()?;
    Ok((meta.is_file() && meta.len() > 0).then_some(meta.len()))
}

fn read_file(
    path: &Path,
    file: File,
    len: Option<u64>,
    labeled: bool,
    chunks: usize,
) -> io::Result<LabeledPoints> {
    let Some(len) = len else {
        // A pipe can be read only once: no count pass, rows pushed as they
        // come.
        let mut rows = Rows::new(labeled, None, 0, Pushed::default());
        rows.parse(&file)?;
        return Ok((rows.out.points, labeled.then_some(rows.out.labels)));
    };
    let cuts = chunk_cuts(&file, len, chunks)?;
    let dim = first_dim(&file, labeled)?;
    // One handle per chunk, as each seeks on its own.
    let mut files = vec![file];
    for _ in 2..cuts.len() {
        files.push(File::open(path)?);
    }
    let ranges: Vec<(&File, u64, u64)> = files
        .iter()
        .zip(cuts.windows(2))
        .map(|(f, w)| (f, w[0], w[1]))
        .collect();

    let lines = on_chunks(ranges.clone(), |(f, start, end)| {
        count_lines(range(f, start, end)?)
    })
    .into_iter()
    .collect::<io::Result<Vec<usize>>>()?;

    // One slot per line, so each chunk writes its rows in place; blank
    // lines leave `None`, dropped by `compact` below.
    let total: usize = lines.iter().sum();
    let mut points: Vec<Option<Point>> = iter::repeat_with(|| None).take(total).collect();
    let mut labels: Vec<Option<Option<usize>>> = iter::repeat_with(|| None)
        .take(if labeled { total } else { 0 })
        .collect();
    let mut jobs = Vec::with_capacity(ranges.len());
    let (mut points_left, mut labels_left) = (&mut points[..], &mut labels[..]);
    let mut first_row = 0;
    for (&(f, start, end), &n) in ranges.iter().zip(&lines) {
        let (p, rest) = points_left.split_at_mut(n);
        points_left = rest;
        let (l, rest) = labels_left.split_at_mut(if labeled { n } else { 0 });
        labels_left = rest;
        let slots = Slots {
            points: p,
            labels: l,
        };
        jobs.push((
            range(f, start, end),
            Rows::new(labeled, dim, first_row, slots),
        ));
        first_row += n;
    }
    // Every chunk runs to its end or its first error; the earliest chunk's
    // error is the file's first.
    for done in on_chunks(jobs, |(src, mut rows)| rows.parse(src?)) {
        done?;
    }
    Ok((compact(points), labeled.then(|| compact(labels))))
}

/// Runs `f` on every item: the first on the calling thread, each other
/// one on its own scoped thread. Results come back in item order.
fn on_chunks<I: Send, T: Send>(items: Vec<I>, f: impl Fn(I) -> T + Sync) -> Vec<T> {
    let f = &f;
    let mut items = items.into_iter();
    let first = items.next().expect("at least one chunk");
    thread::scope(|s| {
        let workers: Vec<_> = items.map(|item| s.spawn(move || f(item))).collect();
        // Chunk 0 stays on this thread: a worker for every chunk measured
        // more peak RSS, not less (DESIGN.md §14).
        let mut out = vec![f(first)];
        out.extend(
            workers
                .into_iter()
                .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p))),
        );
        out
    })
}

/// The `Some` values of `slots`, in order. `filter_map` collects into the
/// slots' own allocation (`Option<T>` is `T`'s size here), which
/// `flatten` would not.
#[allow(clippy::filter_map_identity)]
fn compact<T>(slots: Vec<Option<T>>) -> Vec<T> {
    slots.into_iter().filter_map(|slot| slot).collect()
}

/// Bytes `start..end` of `file`.
fn range(file: &File, start: u64, end: u64) -> io::Result<io::Take<&File>> {
    let mut src = file;
    src.seek(SeekFrom::Start(start))?;
    Ok(src.take(end - start))
}

/// Chunk boundaries `0 = c0 < c1 < … = len`, each inner cut the start of
/// the first line at or after `len·k/chunks`. Fewer than `chunks` ranges
/// come back when lines are longer than a chunk.
fn chunk_cuts(file: &File, len: u64, chunks: usize) -> io::Result<Vec<u64>> {
    let mut cuts = vec![0];
    let mut probe = [0u8; 4096];
    for k in 1..chunks as u64 {
        let nominal = u64::try_from(u128::from(len) * u128::from(k) / chunks as u128)
            .expect("nominal cut is at most len");
        if nominal <= *cuts.last().expect("starts at 0") {
            continue;
        }
        // The first '\n' at or after nominal − 1 ends the line that the
        // cut must not split.
        let mut src = range(file, nominal - 1, len)?;
        let mut at = nominal - 1;
        let cut = loop {
            let n = read_some(&mut src, &mut probe)?;
            if n == 0 {
                break len;
            }
            if let Some(i) = probe[..n].iter().position(|&b| b == b'\n') {
                break at + i as u64 + 1;
            }
            at += n as u64;
        };
        if cut >= len {
            break;
        }
        cuts.push(cut);
    }
    cuts.push(len);
    Ok(cuts)
}

/// The coordinate count of the file's first non-blank row, which every
/// chunk holds its rows to. `None` when there is no such row or it is
/// not UTF-8; then that row (if any) is the file's first error.
fn first_dim(file: &File, labeled: bool) -> io::Result<Option<usize>> {
    for line in BufReader::new(range(file, 0, u64::MAX)?).split(b'\n') {
        let line = line?;
        let Ok(text) = std::str::from_utf8(&line) else {
            return Ok(None);
        };
        let text = text.trim_end();
        if !text.is_empty() {
            let fields = text.bytes().filter(|&b| b == b',').count() + 1;
            return Ok(Some(fields - usize::from(labeled)));
        }
    }
    Ok(None)
}

/// Lines in `src`: its `'\n'`s, plus one for a final unterminated line.
fn count_lines(mut src: impl Read) -> io::Result<usize> {
    let mut buf = vec![0; BLOCK_BYTES];
    let (mut lines, mut last) = (0, b'\n');
    loop {
        let n = read_some(&mut src, &mut buf)?;
        if n == 0 {
            return Ok(lines + usize::from(last != b'\n'));
        }
        lines += count_newlines(&buf[..n]);
        last = buf[n - 1];
    }
}

/// The `'\n'` bytes in `bytes`, summed in `u8` lanes (at most 255 per
/// piece) so the compare-and-add vectorizes byte-wide; a `usize` count
/// widens every byte and measured a third of the speed (DESIGN.md §14.2).
fn count_newlines(bytes: &[u8]) -> usize {
    bytes
        .chunks(255)
        .map(|piece| usize::from(piece.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n'))))
        .sum()
}

/// `read`, retried on `Interrupted`.
fn read_some(src: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    loop {
        match src.read(buf) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            r => return r,
        }
    }
}

/// Where a chunk's parsed rows go.
trait Sink {
    /// Stores the point of the chunk's line `index` (0-based) with its
    /// label (`None` when the file is read unlabeled), or says why not.
    fn put(
        &mut self,
        index: usize,
        point: Point,
        label: Option<Option<usize>>,
    ) -> Result<(), String>;
}

/// A regular file's chunk: its lines' slots in the file-wide output.
struct Slots<'a> {
    points: &'a mut [Option<Point>],
    /// Empty when the file is read unlabeled.
    labels: &'a mut [Option<Option<usize>>],
}

impl Sink for Slots<'_> {
    fn put(
        &mut self,
        index: usize,
        point: Point,
        label: Option<Option<usize>>,
    ) -> Result<(), String> {
        let slot = self
            .points
            .get_mut(index)
            .ok_or("more lines than the count pass saw: the file changed while being read")?;
        *slot = Some(point);
        if let Some(label) = label {
            self.labels[index] = Some(label);
        }
        Ok(())
    }
}

/// A stream's rows, pushed in order.
#[derive(Default)]
struct Pushed {
    points: Vec<Point>,
    labels: Vec<Option<usize>>,
}

impl Sink for Pushed {
    fn put(
        &mut self,
        _index: usize,
        point: Point,
        label: Option<Option<usize>>,
    ) -> Result<(), String> {
        self.points.push(point);
        if let Some(label) = label {
            self.labels.push(label);
        }
        Ok(())
    }
}

/// The row parser for one chunk.
struct Rows<S> {
    labeled: bool,
    /// The expected coordinate count; `None` until a row sets it.
    dim: Option<usize>,
    /// Lines in the file before this chunk.
    first_row: usize,
    /// 1-based file row of the last line seen.
    row: usize,
    out: S,
}

impl<S: Sink> Rows<S> {
    fn new(labeled: bool, dim: Option<usize>, first_row: usize, out: S) -> Self {
        Self {
            labeled,
            dim,
            first_row,
            row: first_row,
            out,
        }
    }

    /// Parses every line of `src`, in blocks cut after their last `'\n'`,
    /// up to the first malformed one.
    fn parse(&mut self, mut src: impl Read) -> io::Result<()> {
        let mut buf = vec![0; BLOCK_BYTES];
        let mut filled = 0;
        loop {
            if filled == buf.len() {
                // One line longer than the buffer.
                buf.resize(2 * buf.len(), 0);
            }
            let n = read_some(&mut src, &mut buf[filled..])?;
            if n == 0 {
                return self.block(&buf[..filled]);
            }
            let seen = filled;
            filled += n;
            if let Some(i) = buf[seen..filled].iter().rposition(|&b| b == b'\n') {
                let end = seen + i + 1;
                self.block(&buf[..end])?;
                buf.copy_within(end..filled, 0);
                filled -= end;
            }
        }
    }

    /// Parses `block`: whole lines, each ended by `'\n'` except at the end
    /// of input. UTF-8 is validated once for the block; the lines before
    /// the first invalid byte are parsed before it is reported, with
    /// `BufRead::read_line`'s error, which names no row.
    fn block(&mut self, block: &[u8]) -> io::Result<()> {
        let (text, utf8_ok) = match std::str::from_utf8(block) {
            Ok(text) => (text, true),
            Err(e) => {
                let valid = &block[..e.valid_up_to()];
                let whole = valid.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                let text = std::str::from_utf8(&valid[..whole]).expect("prefix of valid UTF-8");
                (text, false)
            }
        };
        for line in text.split_terminator('\n') {
            self.line(line).map_err(|msg| bad(self.row, &msg))?;
        }
        if utf8_ok {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            ))
        }
    }

    /// Parses one line (without its `'\n'`), or says what is wrong with it.
    fn line(&mut self, line: &str) -> Result<(), String> {
        self.row += 1;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            return Ok(());
        }
        let (coords, label) = if self.labeled {
            let (coords, raw) = match trimmed.rsplit_once(',') {
                Some((coords, raw)) => (Some(coords), raw),
                None => (None, trimmed),
            };
            let label = if raw.is_empty() {
                None
            } else {
                Some(raw.parse::<usize>().map_err(|e| format!("label: {e}"))?)
            };
            (coords, Some(label))
        } else {
            (Some(trimmed), None)
        };
        let mut xs = Vec::with_capacity(self.dim.unwrap_or(0));
        for field in Fields(coords) {
            let x = field.trim().parse::<f64>();
            xs.push(x.map_err(|e| format!("coordinate: {e}"))?);
        }
        match self.dim {
            None => self.dim = Some(xs.len()),
            Some(d) if d != xs.len() => return Err(format!("arity {} != {d}", xs.len())),
            Some(_) => {}
        }
        let point = Point::try_new(xs).map_err(|e| match e {
            PointError::Empty => "no coordinates".to_string(),
            PointError::NonFinite { index, value } => {
                format!("column {}: non-finite coordinate {value}", index + 1)
            }
        })?;
        self.out.put(self.row - self.first_row - 1, point, label)
    }
}

/// The fields of `s.split(',')` (none for `None`), by a plain byte scan:
/// fields are a few bytes long, too short for `split`'s searcher to pay
/// (DESIGN.md §14.3).
struct Fields<'a>(Option<&'a str>);

impl<'a> Iterator for Fields<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let s = self.0?;
        match s.bytes().position(|b| b == b',') {
            Some(i) => {
                self.0 = Some(&s[i + 1..]);
                Some(&s[..i])
            }
            None => {
                self.0 = None;
                Some(s)
            }
        }
    }
}

fn bad(row: usize, msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("csv row {row}: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The line-at-a-time reader, kept as the oracle that the chunked
    /// reader must match, row and message included.
    fn read_points_oracle(path: &Path, labeled: bool) -> io::Result<LabeledPoints> {
        let mut reader = BufReader::new(File::open(path)?);
        let mut points = Vec::new();
        let mut labels: Vec<Option<usize>> = Vec::new();
        let mut line = String::new();
        let mut dim: Option<usize> = None;
        let mut row = 0usize;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                break;
            }
            row += 1;
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                continue;
            }
            let mut fields: Vec<&str> = trimmed.split(',').collect();
            let label = if labeled {
                let raw = fields
                    .pop()
                    .ok_or_else(|| bad(row, "missing label column"))?;
                if raw.is_empty() {
                    None
                } else {
                    Some(
                        raw.parse::<usize>()
                            .map_err(|e| bad(row, &format!("label: {e}")))?,
                    )
                }
            } else {
                None
            };
            let coords: Vec<f64> = fields
                .iter()
                .map(|f| f.trim().parse::<f64>())
                .collect::<Result<_, _>>()
                .map_err(|e| bad(row, &format!("coordinate: {e}")))?;
            match dim {
                None => dim = Some(coords.len()),
                Some(d) if d != coords.len() => {
                    return Err(bad(row, &format!("arity {} != {d}", coords.len())));
                }
                Some(_) => {}
            }
            let point = Point::try_new(coords).map_err(|e| match e {
                PointError::Empty => bad(row, "no coordinates"),
                PointError::NonFinite { index, value } => bad(
                    row,
                    &format!("column {}: non-finite coordinate {value}", index + 1),
                ),
            })?;
            points.push(point);
            if labeled {
                labels.push(label);
            }
        }
        Ok((points, labeled.then_some(labels)))
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("birch-csv-test-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_unlabeled() {
        let path = tmp("plain");
        let pts = vec![Point::xy(1.5, -2.25), Point::xy(0.0, 3.0)];
        write_points(&path, &pts, None).unwrap();
        let (back, labels) = read_points(&path, false).unwrap();
        assert_eq!(back, pts);
        assert!(labels.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn roundtrip_labeled_with_noise() {
        let path = tmp("labeled");
        let pts = vec![
            Point::xy(1.0, 2.0),
            Point::xy(3.0, 4.0),
            Point::xy(5.0, 6.0),
        ];
        let labels = vec![Some(0), None, Some(7)];
        write_points(&path, &pts, Some(&labels)).unwrap();
        let (back, back_labels) = read_points(&path, true).unwrap();
        assert_eq!(back, pts);
        assert_eq!(back_labels.unwrap(), labels);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_rows_rejected() {
        let path = tmp("bad");
        std::fs::write(&path, "1.0,2.0\n3.0,oops\n").unwrap();
        let err = read_points(&path, false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("row 2"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_finite_coordinates_rejected() {
        // Every spelling `f64::from_str` accepts for NaN and ±∞ parses,
        // so the finiteness check must turn each into an `InvalidData`
        // error naming the row and the column, not a panic.
        for (i, bad) in ["NaN", "inf", "-inf", "infinity", "-Infinity"]
            .iter()
            .enumerate()
        {
            let path = tmp(&format!("nonfinite-{i}"));
            std::fs::write(&path, format!("1.0,2.0,0\n3.0,4.0,1\n5.0,{bad},1\n")).unwrap();
            let err = read_points(&path, true).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad}");
            let msg = err.to_string();
            assert!(
                msg.contains("row 3") && msg.contains("column 2"),
                "{bad}: {msg}"
            );
            assert!(msg.contains("non-finite"), "{bad}: {msg}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn label_only_row_rejected() {
        let path = tmp("nocoords");
        std::fs::write(&path, "1.0,2.0,0\n7\n").unwrap();
        let err = read_points(&path, true).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("row 2"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inconsistent_arity_rejected() {
        let path = tmp("arity");
        std::fs::write(&path, "1.0,2.0\n3.0,4.0,5.0\n").unwrap();
        let err = read_points(&path, false).unwrap_err();
        assert!(err.to_string().contains("arity"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn blank_lines_skipped() {
        let path = tmp("blank");
        std::fs::write(&path, "1.0,2.0\n\n3.0,4.0\n").unwrap();
        let (pts, _) = read_points(&path, false).unwrap();
        assert_eq!(pts.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn high_dimensional_roundtrip() {
        let path = tmp("highd");
        let pts = vec![Point::new((0..32).map(f64::from).collect())];
        write_points(&path, &pts, None).unwrap();
        let (back, _) = read_points(&path, false).unwrap();
        assert_eq!(back, pts);
        std::fs::remove_file(&path).ok();
    }

    /// Points as coordinate bit patterns, so `-0.0` and `0.0` differ.
    fn bits(points: &[Point]) -> Vec<Vec<u64>> {
        points
            .iter()
            .map(|p| p.iter().map(|c| c.to_bits()).collect())
            .collect()
    }

    /// Asserts that the chunked reader, at every chunk count from 1 to 8,
    /// returns what the oracle does: the same points bit for bit and the
    /// same labels, or an error of the same kind and text.
    fn assert_matches_oracle(path: &Path, labeled: bool) {
        let want = read_points_oracle(path, labeled);
        for chunks in 1..=8 {
            let got = read_with_chunks(path, labeled, chunks);
            match (&want, &got) {
                (Ok((wp, wl)), Ok((gp, gl))) => {
                    assert_eq!(bits(wp), bits(gp), "{chunks} chunks");
                    assert_eq!(wl, gl, "{chunks} chunks");
                }
                (Err(w), Err(g)) => {
                    assert_eq!(w.kind(), g.kind(), "{chunks} chunks");
                    assert_eq!(w.to_string(), g.to_string(), "{chunks} chunks");
                }
                _ => panic!("{chunks} chunks: oracle {want:?}, chunked {got:?}"),
            }
        }
    }

    /// xorshift64, for building CSV bytes from one proptest seed.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A small CSV: blank and whitespace-only lines, LF or CRLF endings, an
    /// optional final newline, labelled (noise labels included) or not,
    /// and at most one fault — a bad float, a bad label, an arity change,
    /// a non-finite coordinate or a non-UTF-8 byte — in any row.
    fn random_csv(g: &mut Gen, labeled: bool) -> Vec<u8> {
        let rows = g.below(24) as usize;
        let dim = 1 + g.below(3) as usize;
        let eol: &[u8] = if g.below(2) == 0 { b"\n" } else { b"\r\n" };
        let fault_row = (g.below(3) != 0).then(|| g.below(rows.max(1) as u64) as usize);
        let fault = g.below(5);
        let mut out = Vec::new();
        for r in 0..rows {
            match g.below(6) {
                0 => {}
                1 => out.extend_from_slice(b" \t"),
                _ => {
                    let mut fields: Vec<String> = (0..dim)
                        .map(|_| {
                            let x = (g.next() >> 11) as f64 / (1u64 << 40) as f64 - 4096.0;
                            match g.below(4) {
                                0 => format!(" {x}"),
                                1 => format!("{}", x.round()),
                                _ => format!("{x}"),
                            }
                        })
                        .collect();
                    let at = g.below(dim as u64) as usize;
                    let faulty = fault_row == Some(r);
                    match fault {
                        0 if faulty => fields[at] = ["1.2.3", "", "x"][g.below(3) as usize].into(),
                        2 if faulty => {
                            if g.below(2) == 0 {
                                fields.push("1.5".into());
                            } else {
                                fields.pop();
                            }
                        }
                        3 if faulty => {
                            fields[at] = ["NaN", "inf", "-infinity"][g.below(3) as usize].into();
                        }
                        _ => {}
                    }
                    if labeled {
                        let label = match g.below(4) {
                            0 => String::new(),
                            _ => g.below(100).to_string(),
                        };
                        let label = if faulty && fault == 1 {
                            "-1".into()
                        } else {
                            label
                        };
                        fields.push(label);
                    }
                    out.extend_from_slice(fields.join(",").as_bytes());
                    if faulty && fault == 4 {
                        out.extend_from_slice(&[0xE2, 0x82]);
                    }
                }
            }
            if r + 1 < rows || g.below(2) == 0 {
                out.extend_from_slice(eol);
            }
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(200))]

        #[test]
        fn chunked_reader_matches_oracle(seed in proptest::any::<u64>(), labeled in proptest::any::<bool>()) {
            let mut g = Gen(seed | 1);
            let path = tmp(&format!("prop-{seed}"));
            std::fs::write(&path, random_csv(&mut g, labeled)).unwrap();
            assert_matches_oracle(&path, labeled);
            // Read the other way too: labels as coordinates, or the last
            // coordinate as a label.
            assert_matches_oracle(&path, !labeled);
            std::fs::remove_file(&path).ok();
        }
    }

    /// Eight 8-byte rows: two chunks cut at byte 32, the start of row 5.
    fn eight_rows(edit: &[(usize, &str)]) -> String {
        (1..=8)
            .map(|r| {
                let row = edit
                    .iter()
                    .find(|(at, _)| *at == r)
                    .map_or("1.0,2.0", |e| e.1);
                assert_eq!(row.len(), 7);
                format!("{row}\n")
            })
            .collect()
    }

    #[test]
    fn earlier_chunk_error_wins() {
        let path = tmp("two-errors");
        std::fs::write(&path, eight_rows(&[(3, "1.0,x.0"), (6, "1.0,y.0")])).unwrap();
        let file = File::open(&path).unwrap();
        assert_eq!(chunk_cuts(&file, 64, 2).unwrap(), [0, 32, 64]);
        let err = read_with_chunks(&path, false, 2).unwrap_err();
        assert_eq!(
            err.to_string(),
            "csv row 3: coordinate: invalid float literal"
        );
        assert_matches_oracle(&path, false);

        // Alone, the second chunk's error keeps its row in the file.
        std::fs::write(&path, eight_rows(&[(6, "1.0,y.0")])).unwrap();
        let err = read_with_chunks(&path, false, 2).unwrap_err();
        assert_eq!(
            err.to_string(),
            "csv row 6: coordinate: invalid float literal"
        );
        assert_matches_oracle(&path, false);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn arity_change_at_a_chunk_cut() {
        let path = tmp("arity-cut");
        std::fs::write(&path, eight_rows(&[(5, "1,2,3.0")])).unwrap();
        let err = read_with_chunks(&path, false, 2).unwrap_err();
        assert_eq!(err.to_string(), "csv row 5: arity 3 != 2");
        assert_matches_oracle(&path, false);

        // The dim comes from the file's first non-blank row even when the
        // first chunk has none.
        let rows = "\n".repeat(40) + "1.0,2.0\n1,2,3\n";
        std::fs::write(&path, rows).unwrap();
        let err = read_with_chunks(&path, false, 2).unwrap_err();
        assert_eq!(err.to_string(), "csv row 42: arity 3 != 2");
        assert_matches_oracle(&path, false);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_reads_no_points() {
        let path = tmp("empty");
        std::fs::write(&path, "").unwrap();
        let (points, labels) = read_points(&path, true).unwrap();
        assert!(points.is_empty());
        assert_eq!(labels, Some(vec![]));
        std::fs::remove_file(&path).ok();
    }

    /// procfs reports length 0 for files with content; they must be read
    /// to their end, not taken for empty.
    #[cfg(target_os = "linux")]
    #[test]
    fn zero_length_special_file_is_read_as_a_stream() {
        let path = Path::new("/proc/self/oom_score_adj");
        assert_eq!(std::fs::metadata(path).unwrap().len(), 0);
        let (points, _) = read_points(path, false).unwrap();
        assert_eq!(points.len(), 1);
        assert_matches_oracle(path, false);
    }

    #[test]
    fn count_newlines_matches_a_plain_count() {
        // All newlines fills every u8 lane to its 255 limit.
        let mut g = Gen(7);
        let mixed: Vec<u8> = (0..3000).map(|_| b"\n1,"[g.below(3) as usize]).collect();
        for bytes in [vec![b'\n'; 1000], mixed, vec![], b"no newline".to_vec()] {
            let plain = bytes.iter().filter(|&&b| b == b'\n').count();
            assert_eq!(count_newlines(&bytes), plain);
        }
    }

    #[test]
    fn compact_reuses_the_slot_allocation() {
        let slots: Vec<Option<Point>> = (0..1000)
            .map(|i| (i % 7 != 0).then(|| Point::xy(f64::from(i), 0.0)))
            .collect();
        let at = slots.as_ptr() as usize;
        let points = compact(slots);
        assert_eq!(points.len(), 857);
        assert_eq!(points.as_ptr() as usize, at, "compaction copied the points");
    }

    #[test]
    fn parallel_read_of_a_large_file_matches_oracle() {
        let path = tmp("large");
        let pts: Vec<Point> = (0..60_000)
            .map(|i| Point::xy(f64::from(i) / 7.0, -f64::from(i) * 1e-3))
            .collect();
        let labels: Vec<Option<usize>> = (0..pts.len())
            .map(|i| (i % 5 != 0).then_some(i % 100))
            .collect();
        write_points(&path, &pts, Some(&labels)).unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() >= PARALLEL_MIN_BYTES);
        let (back, back_labels) = read_points(&path, true).unwrap();
        assert_eq!(bits(&back), bits(&pts));
        assert_eq!(back_labels.unwrap(), labels);
        assert_matches_oracle(&path, true);
        std::fs::remove_file(&path).ok();
    }
}

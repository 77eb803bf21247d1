//! Bounded line reading: the building block that keeps the TCP front end
//! ([`crate::lineserver`]) from buffering an attacker-sized "line" into
//! memory.
//!
//! `BufRead::read_line` happily grows its buffer until the peer sends a
//! newline or the process runs out of memory. `read_line_bounded` instead
//! enforces a caller-chosen cap: once a line exceeds it, the function stops
//! accumulating (it keeps *consuming* the buffered bytes it inspected, so the
//! stream position stays deterministic) and reports [`LineRead::TooLong`].
//! The server answers `ERR request too long` and closes the connection.
//!
//! Bytes are converted with `from_utf8_lossy`, so hostile binary input parses
//! as garbage text (and is rejected by the protocol layer with a normal
//! `ERR bad request`) instead of killing the connection without an answer.

use std::io::BufRead;

/// Outcome of one bounded line read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LineRead {
    /// A complete newline-terminated line is in the caller's buffer
    /// (terminator and any trailing `\r` stripped).
    Line,
    /// The stream ended with unterminated bytes; they are in the caller's
    /// buffer. The server treats this as a damaged exchange (a cut
    /// connection).
    Partial,
    /// The stream ended cleanly with no pending bytes.
    Eof,
    /// The line exceeded the cap before a newline arrived. The buffer is
    /// empty; the inspected bytes were consumed.
    TooLong,
}

/// Read one `\n`-terminated line of at most `max_len` bytes (terminator
/// excluded) into `out`. I/O errors — including read timeouts surfacing as
/// `WouldBlock`/`TimedOut` — propagate untouched so callers can classify
/// them.
pub(crate) fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    out: &mut String,
    max_len: usize,
) -> std::io::Result<LineRead> {
    out.clear();
    let mut bytes: Vec<u8> = Vec::new();
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            if bytes.is_empty() {
                return Ok(LineRead::Eof);
            }
            strip_and_set(bytes, out);
            return Ok(LineRead::Partial);
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(newline) => {
                let consumed = newline + 1;
                if bytes.len() + newline > max_len {
                    reader.consume(consumed);
                    return Ok(LineRead::TooLong);
                }
                bytes.extend_from_slice(&available[..newline]);
                reader.consume(consumed);
                strip_and_set(bytes, out);
                return Ok(LineRead::Line);
            }
            None => {
                let n = available.len();
                if bytes.len() + n > max_len {
                    reader.consume(n);
                    return Ok(LineRead::TooLong);
                }
                bytes.extend_from_slice(available);
                reader.consume(n);
            }
        }
    }
}

fn strip_and_set(mut bytes: Vec<u8>, out: &mut String) {
    while bytes.last() == Some(&b'\r') {
        bytes.pop();
    }
    *out = String::from_utf8_lossy(&bytes).into_owned();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Cursor};

    fn read_all(input: &[u8], max: usize) -> Vec<(LineRead, String)> {
        let mut reader = BufReader::new(Cursor::new(input.to_vec()));
        let mut out = String::new();
        let mut seen = Vec::new();
        loop {
            let r = read_line_bounded(&mut reader, &mut out, max).unwrap();
            seen.push((r, out.clone()));
            if matches!(r, LineRead::Eof | LineRead::Partial) {
                return seen;
            }
        }
    }

    #[test]
    fn reads_lines_and_strips_terminators() {
        let seen = read_all(b"alpha\nbeta\r\n\ngamma", 100);
        assert_eq!(
            seen,
            vec![
                (LineRead::Line, "alpha".into()),
                (LineRead::Line, "beta".into()),
                (LineRead::Line, "".into()),
                (LineRead::Partial, "gamma".into()),
            ]
        );
        assert_eq!(read_all(b"", 100), vec![(LineRead::Eof, "".into())]);
        assert_eq!(
            read_all(b"one\n", 100),
            vec![(LineRead::Line, "one".into()), (LineRead::Eof, "".into())]
        );
    }

    #[test]
    fn exact_cap_is_allowed_and_one_past_is_not() {
        let seen = read_all(b"12345\nok\n", 5);
        assert_eq!(seen[0], (LineRead::Line, "12345".into()));
        let seen = read_all(b"123456\nok\n", 5);
        assert_eq!(seen[0].0, LineRead::TooLong);
        // the overlong line was consumed through its newline: the stream is
        // positioned at the next line
        assert_eq!(seen[1], (LineRead::Line, "ok".into()));
    }

    #[test]
    fn overlong_without_newline_consumes_and_reports() {
        let big = vec![b'x'; 1000];
        let mut reader = BufReader::with_capacity(64, Cursor::new(big));
        let mut out = String::new();
        assert_eq!(read_line_bounded(&mut reader, &mut out, 100).unwrap(), LineRead::TooLong);
        assert!(out.is_empty());
    }

    #[test]
    fn invalid_utf8_is_lossy_not_fatal() {
        let seen = read_all(b"\xff\xfe bad\n", 100);
        assert_eq!(seen[0].0, LineRead::Line);
        assert!(seen[0].1.contains("bad"));
    }

    #[test]
    fn bound_is_independent_of_bufreader_chunking() {
        // a line split across many tiny fill_buf() chunks must still honour
        // the cap exactly
        let input = b"abcdefghij\n".to_vec();
        for cap in 1..=12 {
            let mut reader = BufReader::with_capacity(cap.max(1), Cursor::new(input.clone()));
            let mut out = String::new();
            let r = read_line_bounded(&mut reader, &mut out, 9).unwrap();
            assert_eq!(r, LineRead::TooLong, "bufcap={cap}");
            let mut reader = BufReader::with_capacity(cap.max(1), Cursor::new(input.clone()));
            let r = read_line_bounded(&mut reader, &mut out, 10).unwrap();
            assert_eq!((r, out.as_str()), (LineRead::Line, "abcdefghij"), "bufcap={cap}");
        }
    }
}

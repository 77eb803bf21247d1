//! Line-oriented TSV codec for triples.
//!
//! The on-disk format mirrors the GraIL benchmark files: one triple per line,
//! `head \t relation \t tail`, names resolved through a [`Vocab`]. Reading
//! can either extend a vocabulary (training graphs) or require all names to
//! exist already (strict mode, used when a testing graph must share relation
//! ids with its training graph).

use crate::error::KgError;
use crate::interner::Vocab;
use crate::triple::Triple;
use std::io::{BufRead, Write};

/// Serialise triples as TSV lines using names from `vocab`.
pub fn write_triples<W: Write>(
    w: &mut W,
    triples: &[Triple],
    vocab: &Vocab,
) -> Result<(), KgError> {
    for t in triples {
        let h = vocab.entity_name(t.head)?;
        let r = vocab.relation_name(t.relation)?;
        let o = vocab.entity_name(t.tail)?;
        writeln!(w, "{h}\t{r}\t{o}")?;
    }
    Ok(())
}

/// Parse TSV lines into triples, interning unseen names into `vocab`.
///
/// Blank lines and lines starting with `#` are skipped.
pub fn read_triples<R: BufRead>(r: R, vocab: &mut Vocab) -> Result<Vec<Triple>, KgError> {
    let mut triples = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split('\t');
        let (h, rel, t) = match (parts.next(), parts.next(), parts.next()) {
            (Some(h), Some(rel), Some(t)) if parts.next().is_none() => (h, rel, t),
            _ => {
                return Err(KgError::Parse {
                    line: lineno + 1,
                    message: format!("expected 3 tab-separated fields, got {trimmed:?}"),
                })
            }
        };
        let head = vocab.entity(h);
        let relation = vocab.relation(rel);
        let tail = vocab.entity(t);
        triples.push(Triple { head, relation, tail });
    }
    Ok(triples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip() {
        let mut vocab = Vocab::new();
        let input = "a\tr1\tb\nb\tr2\tc\n";
        let triples = read_triples(Cursor::new(input), &mut vocab).unwrap();
        assert_eq!(triples.len(), 2);
        let mut buf = Vec::new();
        write_triples(&mut buf, &triples, &vocab).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), input);
    }

    #[test]
    fn skips_blank_and_comment_lines() {
        let mut vocab = Vocab::new();
        let input = "# header\n\na\tr\tb\n   \n";
        let triples = read_triples(Cursor::new(input), &mut vocab).unwrap();
        assert_eq!(triples.len(), 1);
    }

    #[test]
    fn malformed_line_reports_position() {
        let mut vocab = Vocab::new();
        let input = "a\tr\tb\nbad line\n";
        let err = read_triples(Cursor::new(input), &mut vocab).unwrap_err();
        match err {
            KgError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn too_many_fields_rejected() {
        let mut vocab = Vocab::new();
        let input = "a\tr\tb\textra\n";
        assert!(read_triples(Cursor::new(input), &mut vocab).is_err());
    }
}

//! The text tensor codec shared by every checkpoint section, and the
//! reader for legacy `mb-params v1` documents.
//!
//! A tensor is two lines — a header ending in its rank and dimensions,
//! then its values with 17 significant digits (exact `f64` round trip):
//!
//! ```text
//! <head> <rank> <dim0> <dim1> ...
//! <value> <value> ...
//! ```
//!
//! `<head>` is `param <name>` inside a parameter body and `tensor`
//! inside optimizer state ([`crate::checkpoint`]). A v1 document is the
//! line `mb-params v1` followed by one parameter body; it carries no
//! CRC. Nothing writes v1 any more — `metablink train` used to, one
//! `.mbp` file per encoder — but [`read_v1`] keeps those files loadable
//! through [`crate::checkpoint::Checkpoint::from_bytes`].

use crate::params::Params;
use crate::tensor::Tensor;
use mb_common::{Error, Result};

const MAGIC_V1: &str = "mb-params v1";

/// Append one tensor under the header prefix `head`.
pub(crate) fn write_tensor(head: &str, tensor: &Tensor, out: &mut String) {
    out.push_str(head);
    out.push(' ');
    out.push_str(&tensor.rank().to_string());
    for d in tensor.shape() {
        out.push(' ');
        out.push_str(&d.to_string());
    }
    out.push('\n');
    for (i, v) in tensor.data().iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(&format!("{v:.17e}"));
    }
    out.push('\n');
}

/// Parse one tensor: `header` is what is left of its header line after
/// the prefix (`<rank> <dims…>`), its values are the next of `lines`.
/// The rank is bounded by the tokens actually on the line and the
/// element count is overflow-checked, so no header sizes an allocation.
pub(crate) fn parse_tensor<'a>(
    mut header: impl Iterator<Item = &'a str>,
    lines: &mut std::str::Lines<'_>,
    what: &str,
) -> Result<Tensor> {
    let bad = |msg: String| Error::Parse(format!("{what}: {msg}"));
    let rank: usize =
        header.next().and_then(|t| t.parse().ok()).ok_or_else(|| bad("bad rank".into()))?;
    let shape: Vec<usize> = header
        .map(|t| t.parse().map_err(|e| bad(format!("bad dimension {t:?}: {e}"))))
        .collect::<Result<_>>()?;
    if shape.len() != rank {
        return Err(bad(format!("rank {rank} but {} dimensions", shape.len())));
    }
    let numel = shape
        .iter()
        .try_fold(1usize, |n, &d| n.checked_mul(d))
        .ok_or_else(|| bad(format!("shape {shape:?} overflows")))?;
    let data: Vec<f64> = lines
        .next()
        .ok_or_else(|| bad("missing data line".into()))?
        .split_whitespace()
        .map(|t| t.parse().map_err(|e| bad(format!("bad value {t:?}: {e}"))))
        .collect::<Result<_>>()?;
    if data.len() != numel {
        return Err(bad(format!("shape {shape:?} needs {numel} values, found {}", data.len())));
    }
    Ok(Tensor::from_vec(shape, data))
}

/// Append the parameter body: one `param <name>` tensor per parameter.
///
/// # Errors
/// [`Error::Diverged`] if any value is NaN or infinite — a checkpoint
/// containing non-finite parameters could never be resumed into a
/// healthy run, so it is rejected at save time rather than discovered
/// at load time.
pub(crate) fn write_params_body(params: &Params, out: &mut String) -> Result<()> {
    for (name, tensor) in params.iter() {
        if tensor.has_non_finite() {
            return Err(Error::Diverged(format!(
                "refusing to serialize non-finite values in param {name:?}"
            )));
        }
        write_tensor(&format!("param {name}"), tensor, out);
    }
    Ok(())
}

/// Parse a parameter body produced by [`write_params_body`].
pub(crate) fn parse_params_body(s: &str) -> Result<Params> {
    let mut lines = s.lines();
    let mut params = Params::new();
    while let Some(header) = lines.next() {
        let mut parts = header.split_whitespace();
        match parts.next() {
            None => continue,
            Some("param") => {}
            other => return Err(Error::Parse(format!("expected 'param', got {other:?}"))),
        }
        let name = parts.next().ok_or_else(|| Error::Parse("param line missing name".into()))?;
        if params.id_of(name).is_ok() {
            return Err(Error::Parse(format!("param {name}: duplicate name")));
        }
        let tensor = parse_tensor(parts, &mut lines, &format!("param {name}"))?;
        params.add(name, tensor);
    }
    Ok(params)
}

/// The parameters of an `mb-params v1` document, or `None` when `bytes`
/// does not open with the v1 magic line.
pub(crate) fn read_v1(bytes: &[u8]) -> Option<Result<Params>> {
    let (magic, body) = bytes.split_at(bytes.iter().position(|&b| b == b'\n')?);
    if std::str::from_utf8(magic).ok()?.trim() != MAGIC_V1 {
        return None;
    }
    Some(
        std::str::from_utf8(body)
            .map_err(|_| Error::Checkpoint("v1 checkpoint is not UTF-8".into()))
            .and_then(parse_params_body),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(doc: &str) -> Result<Params> {
        read_v1(doc.as_bytes()).expect("v1 magic")
    }

    #[test]
    fn reads_a_v1_document() {
        let p = read("mb-params v1\nparam w 2 1 2\n1.5 -2\nparam s 0\n3\n").unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.get(p.id_of("w").unwrap()), &Tensor::from_vec(vec![1, 2], vec![1.5, -2.0]));
        assert_eq!(p.get(p.id_of("s").unwrap()), &Tensor::scalar(3.0));
    }

    #[test]
    fn other_magic_is_not_v1() {
        assert!(read_v1(b"nope\n").is_none());
        assert!(read_v1(b"").is_none());
        assert!(read_v1(b"mb-params v1").is_none(), "unterminated magic line");
        assert!(read_v1(b"mb-params v2 0\n").is_none());
    }

    #[test]
    fn rejects_wrong_value_count() {
        let err = read("mb-params v1\nparam w 1 3\n1.0 2.0\n").unwrap_err();
        assert!(err.to_string().contains("needs 3 values"));
    }

    #[test]
    fn rejects_garbage_values() {
        assert!(read("mb-params v1\nparam w 1 1\nhello\n").is_err());
    }

    #[test]
    fn oversized_rank_is_a_parse_error() {
        let err = read("mb-params v1\nparam w 18446744073709551615 3\n1 2 3\n").unwrap_err();
        assert!(matches!(err, Error::Parse(_)), "{err:?}");
    }

    #[test]
    fn repeated_name_is_a_parse_error() {
        let err = read("mb-params v1\nparam w 1 1\n1\nparam w 1 1\n2\n").unwrap_err();
        assert!(matches!(err, Error::Parse(_)), "{err:?}");
    }

    #[test]
    fn overflowing_shape_is_a_parse_error() {
        // 2^63 * 2 wraps to 0 == the number of values on an empty line.
        let err = read("mb-params v1\nparam w 2 9223372036854775808 2\n\n").unwrap_err();
        assert!(matches!(err, Error::Parse(_)), "{err:?}");
    }
}

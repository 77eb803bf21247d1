//! The workspace's shared single-line JSON writer. The registry's `METRICS`
//! dump routes through this module so escaping and number formatting live
//! in one place.
//!
//! Output shape is fixed: `{"key": value, "other": value}` — `": "` after
//! keys, `", "` between fields, no trailing newline, so a dump fits one
//! line of the wire protocol.

/// Escape `s` for embedding inside a JSON string literal (no surrounding
/// quotes). Handles quotes, backslashes, and control characters.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Incremental builder for one single-line JSON object.
#[derive(Debug, Default)]
pub(crate) struct JsonObject {
    buf: String,
    fields: usize,
}

impl JsonObject {
    /// Start an empty object.
    pub(crate) fn new() -> Self {
        JsonObject { buf: String::from("{"), fields: 0 }
    }

    fn key(&mut self, name: &str) {
        if self.fields > 0 {
            self.buf.push_str(", ");
        }
        self.buf.push('"');
        self.buf.push_str(&escape(name));
        self.buf.push_str("\": ");
        self.fields += 1;
    }

    /// Append an unsigned integer field.
    pub(crate) fn field_u64(&mut self, name: &str, v: u64) -> &mut Self {
        self.key(name);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Append a signed integer field.
    pub(crate) fn field_i64(&mut self, name: &str, v: i64) -> &mut Self {
        self.key(name);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Append a float field rendered with `precision` decimal places
    /// (non-finite values are rendered as `null`).
    pub(crate) fn field_f64(&mut self, name: &str, v: f64, precision: usize) -> &mut Self {
        self.key(name);
        if v.is_finite() {
            self.buf.push_str(&format!("{v:.precision$}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Append pre-rendered JSON verbatim (a nested object or array the
    /// caller already serialized).
    pub(crate) fn field_raw(&mut self, name: &str, json: &str) -> &mut Self {
        self.key(name);
        self.buf.push_str(json);
        self
    }

    /// Close the object and return the single-line string.
    pub(crate) fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn object_shape_is_one_line_with_fixed_separators() {
        let mut o = JsonObject::new();
        o.field_u64("scores", 12);
        o.field_f64("latency_us_mean", 33.449, 1);
        o.field_f64("cache_hit_rate", 0.5, 4);
        assert_eq!(
            o.finish(),
            "{\"scores\": 12, \"latency_us_mean\": 33.4, \"cache_hit_rate\": 0.5000}"
        );
    }

    #[test]
    fn empty_object_and_nested_raw() {
        assert_eq!(JsonObject::new().finish(), "{}");
        let mut inner = JsonObject::new();
        inner.field_u64("n", 1);
        let mut outer = JsonObject::new();
        outer.field_raw("inner", &inner.finish());
        assert_eq!(outer.finish(), "{\"inner\": {\"n\": 1}}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut o = JsonObject::new();
        o.field_f64("bad", f64::NAN, 2);
        o.field_f64("inf", f64::INFINITY, 2);
        assert_eq!(o.finish(), "{\"bad\": null, \"inf\": null}");
    }
}

//! The durability codec (DESIGN.md §16.1), shared by the snapshot and
//! the write-ahead log so that both files encode a value and a schema
//! the same way.
//!
//! A value is one tag byte followed by a fixed-width little-endian
//! integer or float bit pattern, or by length-prefixed UTF-8 text. Text
//! fields are a `u32` byte length and the bytes. A schema is its JSON
//! image as one text field. Writers append to a `Vec<u8>`; readers go
//! through [`Cursor`], a bounds-checked reader over one checksummed
//! payload.

use crate::schema::TableSchema;
use crate::value::{FiniteF64, Value};
use crate::wal::DurabilityError;

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_TEXT: u8 = 4;

/// Appends a `u32` length prefix and the bytes of `s`.
pub(crate) fn encode_text(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Appends one tag-encoded value.
pub(crate) fn encode_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(TAG_NULL),
        Value::Bool(b) => {
            buf.push(TAG_BOOL);
            buf.push(u8::from(*b));
        }
        Value::Int(i) => {
            buf.push(TAG_INT);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            buf.push(TAG_FLOAT);
            buf.extend_from_slice(&f.get().to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            buf.push(TAG_TEXT);
            encode_text(buf, s);
        }
    }
}

/// Appends a schema as one text field holding its JSON image.
pub(crate) fn encode_schema(buf: &mut Vec<u8>, schema: &TableSchema) {
    encode_text(buf, &serde_json::to_string(schema).expect("schema serialisation cannot fail"));
}

/// A bounds-checked cursor over one decoded payload. Every read failure
/// is a [`DurabilityError::Corrupt`]: the payload already passed its
/// checksum, so running out of bytes means the writer and reader
/// disagree about the layout — never something to tolerate.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    context: &'a str,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8], context: &'a str) -> Self {
        Cursor { bytes, pos: 0, context }
    }

    pub(crate) fn corrupt(&self, what: &str) -> DurabilityError {
        DurabilityError::Corrupt(format!("{}: {what}", self.context))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DurabilityError> {
        if self.bytes.len() - self.pos < n {
            return Err(self.corrupt("payload ends mid-field"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, DurabilityError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, DurabilityError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, DurabilityError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a u32 element count and checks that the rest of the payload
    /// can hold that many elements of at least `min_bytes` each, so an
    /// inflated count is corruption before anything is sized from it.
    pub(crate) fn count(&mut self, min_bytes: usize) -> Result<usize, DurabilityError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_bytes) > self.bytes.len() - self.pos {
            return Err(self.corrupt(&format!("count {n} overruns the payload")));
        }
        Ok(n)
    }

    pub(crate) fn text(&mut self) -> Result<String, DurabilityError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt("non-UTF-8 text field"))
    }

    pub(crate) fn value(&mut self) -> Result<Value, DurabilityError> {
        match self.u8()? {
            TAG_NULL => Ok(Value::Null),
            TAG_BOOL => Ok(Value::Bool(self.u8()? != 0)),
            TAG_INT => Ok(Value::Int(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))),
            TAG_FLOAT => {
                let f = f64::from_bits(self.u64()?);
                if !f.is_finite() {
                    return Err(self.corrupt("non-finite float value"));
                }
                Ok(Value::Float(FiniteF64::new(f)))
            }
            TAG_TEXT => Ok(Value::Text(self.text()?)),
            tag => Err(self.corrupt(&format!("unknown value tag {tag}"))),
        }
    }

    /// Reads a schema. It is parsed, not checked: the snapshot checks it
    /// before sizing rows from it, and a logged one is checked by the
    /// store when its record replays.
    pub(crate) fn schema(&mut self) -> Result<TableSchema, DurabilityError> {
        let json = self.text()?;
        serde_json::from_str(&json)
            .map_err(|e| self.corrupt(&format!("schema does not parse: {e}")))
    }

    pub(crate) fn finish(&self) -> Result<(), DurabilityError> {
        if self.pos != self.bytes.len() {
            return Err(self.corrupt("trailing bytes after the last field"));
        }
        Ok(())
    }
}

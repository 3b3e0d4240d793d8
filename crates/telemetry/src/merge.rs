//! One artifact from many per-shard JSONL trace exports.
//!
//! The parallel experiment runner (`repro --jobs N`) runs every
//! (experiment, seed) cell on its own scheduler with its own [`crate::Telemetry`]
//! sink, then writes the per-cell [`crate::Telemetry::export_jsonl`] documents
//! into one file. [`Merger`] writes each shard as it is: a
//! `{"t":"shard","index":N,"label":"…"}` header line, then the shard's
//! export byte for byte. Nothing is parsed or rewritten here; the reader,
//! [`crate::trace::Trace`], joins the shards — it keeps span ids from
//! colliding across them, sums their counters and skips malformed lines.
//!
//! Shards are pushed in the caller's order (the caller sorts by the
//! stable (experiment, seed) key), so the output is a pure function of
//! the input sequence: two runs that produce the same shards in the same
//! order write byte-identical documents regardless of how many worker
//! threads raced to produce them. Memory stays bounded by the caller's
//! one shard, however many stream past.

use std::io;

use crate::json;

/// Streaming shard writer over any [`io::Write`]; see the module docs.
pub struct Merger<W: io::Write> {
    out: W,
    index: usize,
}

impl<W: io::Write> Merger<W> {
    pub fn new(out: W) -> Merger<W> {
        Merger { out, index: 0 }
    }

    /// Append one shard: its header line, then `src` verbatim, ending in
    /// a newline.
    pub fn push_shard(&mut self, label: &str, src: &str) -> io::Result<()> {
        writeln!(
            self.out,
            "{{\"t\":\"shard\",\"index\":{},\"label\":\"{}\"}}",
            self.index,
            json::escape(label),
        )?;
        self.index += 1;
        self.out.write_all(src.as_bytes())?;
        if !src.is_empty() && !src.ends_with('\n') {
            self.out.write_all(b"\n")?;
        }
        Ok(())
    }

    /// Flush the output.
    pub fn finish(mut self) -> io::Result<()> {
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn merged(shards: &[(&str, &str)]) -> String {
        let mut buf: Vec<u8> = Vec::new();
        let mut m = Merger::new(&mut buf);
        for (label, src) in shards {
            m.push_shard(label, src).unwrap();
        }
        m.finish().unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn shards_are_written_verbatim_under_their_headers_in_push_order() {
        let a = "{\"t\":\"counter\",\"name\":\"net-udp-bytes\",\"value\":100}\n";
        // A shard without a final newline still ends its line.
        let b = "not json";
        let shards = [("fig3.3#1/0", a), ("fig\"3.3#2/0", b)];
        let doc = merged(&shards);
        assert_eq!(
            doc,
            format!(
                "{{\"t\":\"shard\",\"index\":0,\"label\":\"fig3.3#1/0\"}}\n{a}\
                 {{\"t\":\"shard\",\"index\":1,\"label\":\"fig\\\"3.3#2/0\"}}\n{b}\n"
            )
        );
        assert_eq!(merged(&shards), doc, "same shards, same bytes");
    }

    #[test]
    fn no_shards_empty_output() {
        assert_eq!(merged(&[]), "");
    }
}

//! Human-readable text serialization of traces.
//!
//! One line per instruction, whitespace-separated fields, `#` comments.
//! Intended for debugging, diffing, and interop with external tools
//! (awk/python analysis of traces), complementing the compact binary
//! format in [`crate::write_trace`].
//!
//! ```text
//! # pc kind dst srcs mem branch
//! 0x10000 load x10 x2,_ m:0x100000/8=0x2a -
//! 0x10004 int x11 x10,_ - -
//! 0x10008 branch _ x11,_ - b:taken@0x10000
//! ```

use crate::entry::{BranchEvent, MemAccess, OpKind, RegClass, RegRef, TraceEntry};
use crate::io::kind_inconsistency;
use crate::Trace;
use std::fmt;
use std::fmt::Write as _;

/// Error produced while parsing a text trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    line: usize,
    msg: String,
}

impl ParseTraceError {
    fn new(line: usize, msg: impl Into<String>) -> ParseTraceError {
        ParseTraceError {
            line,
            msg: msg.into(),
        }
    }

    /// 1-based line number of the problem.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "text trace parse error at line {}: {}",
            self.line, self.msg
        )
    }
}

impl std::error::Error for ParseTraceError {}

fn kind_name(k: OpKind) -> &'static str {
    match k {
        OpKind::IntSimple => "int",
        OpKind::IntComplex => "intc",
        OpKind::FpSimple => "fp",
        OpKind::FpComplex => "fpc",
        OpKind::Load => "load",
        OpKind::Store => "store",
        OpKind::CondBranch => "branch",
        OpKind::Jump => "jump",
        OpKind::IndirectJump => "ijump",
        OpKind::System => "sys",
    }
}

fn kind_from_name(s: &str) -> Option<OpKind> {
    Some(match s {
        "int" => OpKind::IntSimple,
        "intc" => OpKind::IntComplex,
        "fp" => OpKind::FpSimple,
        "fpc" => OpKind::FpComplex,
        "load" => OpKind::Load,
        "store" => OpKind::Store,
        "branch" => OpKind::CondBranch,
        "jump" => OpKind::Jump,
        "ijump" => OpKind::IndirectJump,
        "sys" => OpKind::System,
        _ => return None,
    })
}

fn reg_str(r: Option<RegRef>) -> String {
    match r {
        None => "_".to_string(),
        Some(r) => r.to_string(),
    }
}

fn parse_reg(s: &str, line: usize) -> Result<Option<RegRef>, ParseTraceError> {
    if s == "_" {
        return Ok(None);
    }
    let (class, num) = if let Some(n) = s.strip_prefix('x') {
        (RegClass::Int, n)
    } else if let Some(n) = s.strip_prefix('f') {
        (RegClass::Fp, n)
    } else {
        return Err(ParseTraceError::new(line, format!("bad register `{s}`")));
    };
    let num: u8 = num
        .parse()
        .map_err(|_| ParseTraceError::new(line, format!("bad register number `{s}`")))?;
    if num >= 32 {
        return Err(ParseTraceError::new(
            line,
            format!("register out of range `{s}`"),
        ));
    }
    Ok(Some(RegRef { class, num }))
}

fn parse_u64(s: &str, line: usize) -> Result<u64, ParseTraceError> {
    let v = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    v.map_err(|_| ParseTraceError::new(line, format!("bad number `{s}`")))
}

/// Renders a trace as text, one instruction per line.
///
/// # Examples
///
/// ```
/// use lvp_trace::{dump_text, parse_text, OpKind, Trace, TraceEntry};
/// let trace: Trace =
///     (0..3).map(|i| TraceEntry::simple(0x1000 + 4 * i, OpKind::IntSimple)).collect();
/// let text = dump_text(&trace);
/// let back = parse_text(&text)?;
/// assert_eq!(back, trace);
/// # Ok::<(), lvp_trace::ParseTraceError>(())
/// ```
pub fn dump_text(trace: &Trace) -> String {
    let mut out = String::with_capacity(trace.len() * 48);
    out.push_str("# pc kind dst srcs mem branch\n");
    for e in trace {
        let _ = write!(
            out,
            "{:#x} {} {} {},{}",
            e.pc,
            kind_name(e.kind),
            reg_str(e.dst),
            reg_str(e.srcs[0]),
            reg_str(e.srcs[1])
        );
        match e.mem {
            Some(m) => {
                let fp = if m.fp { "f" } else { "" };
                let _ = write!(out, " m{fp}:{:#x}/{}={:#x}", m.addr, m.width, m.value);
            }
            None => out.push_str(" -"),
        }
        match e.branch {
            Some(b) => {
                let t = if b.taken { "taken" } else { "not" };
                let _ = write!(out, " b:{t}@{:#x}", b.target);
            }
            None => out.push_str(" -"),
        }
        out.push('\n');
    }
    out
}

/// Parses the text format produced by [`dump_text`].
///
/// # Errors
///
/// Returns [`ParseTraceError`] with the offending 1-based line for any
/// malformed record, including a load or store without a memory access
/// and a branch or jump without a branch event.
pub fn parse_text(text: &str) -> Result<Trace, ParseTraceError> {
    let mut trace = Trace::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 6 {
            return Err(ParseTraceError::new(
                line_no,
                format!("expected 6 fields, found {}", fields.len()),
            ));
        }
        let pc = parse_u64(fields[0], line_no)?;
        let kind = kind_from_name(fields[1])
            .ok_or_else(|| ParseTraceError::new(line_no, format!("bad kind `{}`", fields[1])))?;
        let dst = parse_reg(fields[2], line_no)?;
        let (s0, s1) = fields[3]
            .split_once(',')
            .ok_or_else(|| ParseTraceError::new(line_no, "bad srcs field"))?;
        let srcs = [parse_reg(s0, line_no)?, parse_reg(s1, line_no)?];
        let mem = if fields[4] == "-" {
            None
        } else {
            let body = fields[4]
                .strip_prefix("mf:")
                .map(|b| (b, true))
                .or_else(|| fields[4].strip_prefix("m:").map(|b| (b, false)))
                .ok_or_else(|| ParseTraceError::new(line_no, "bad mem field"))?;
            let (body, fp) = body;
            let (addr_width, value) = body
                .split_once('=')
                .ok_or_else(|| ParseTraceError::new(line_no, "mem field missing `=`"))?;
            let (addr, width) = addr_width
                .split_once('/')
                .ok_or_else(|| ParseTraceError::new(line_no, "mem field missing `/`"))?;
            let width: u8 = width
                .parse()
                .map_err(|_| ParseTraceError::new(line_no, "bad mem width"))?;
            if !matches!(width, 1 | 2 | 4 | 8) {
                return Err(ParseTraceError::new(line_no, "mem width must be 1/2/4/8"));
            }
            Some(MemAccess {
                addr: parse_u64(addr, line_no)?,
                width,
                value: parse_u64(value, line_no)?,
                fp,
            })
        };
        let branch = if fields[5] == "-" {
            None
        } else {
            let body = fields[5]
                .strip_prefix("b:")
                .ok_or_else(|| ParseTraceError::new(line_no, "bad branch field"))?;
            let (dir, target) = body
                .split_once('@')
                .ok_or_else(|| ParseTraceError::new(line_no, "branch field missing `@`"))?;
            let taken = match dir {
                "taken" => true,
                "not" => false,
                other => {
                    return Err(ParseTraceError::new(
                        line_no,
                        format!("bad branch direction `{other}`"),
                    ));
                }
            };
            Some(BranchEvent {
                taken,
                target: parse_u64(target, line_no)?,
            })
        };
        let entry = TraceEntry {
            pc,
            kind,
            dst,
            srcs,
            mem,
            branch,
        };
        if let Some(what) = kind_inconsistency(&entry) {
            return Err(ParseTraceError::new(line_no, what));
        }
        trace.push(entry);
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.push(TraceEntry::simple(0x10000, OpKind::IntSimple));
        t.push(TraceEntry {
            pc: 0x10004,
            kind: OpKind::Load,
            dst: Some(RegRef::int(10)),
            srcs: [Some(RegRef::int(2)), None],
            mem: Some(MemAccess {
                addr: 0x10_0000,
                width: 8,
                value: 42,
                fp: false,
            }),
            branch: None,
        });
        t.push(TraceEntry {
            pc: 0x10008,
            kind: OpKind::Store,
            dst: None,
            srcs: [Some(RegRef::int(2)), Some(RegRef::fp(3))],
            mem: Some(MemAccess {
                addr: 0x10_0008,
                width: 8,
                value: 7,
                fp: true,
            }),
            branch: None,
        });
        t.push(TraceEntry {
            pc: 0x1000c,
            kind: OpKind::CondBranch,
            dst: None,
            srcs: [Some(RegRef::int(10)), None],
            mem: None,
            branch: Some(BranchEvent {
                taken: false,
                target: 0x10010,
            }),
        });
        t
    }

    #[test]
    fn round_trip() {
        let t = sample();
        let text = dump_text(&t);
        let back = parse_text(&text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# header\n\n0x10 int _ _,_ - -  # trailing\n";
        let t = parse_text(text).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.iter().next().unwrap().pc, 0x10);
    }

    #[test]
    fn errors_carry_lines() {
        let err = parse_text("0x10 bogus _ _,_ - -\n").unwrap_err();
        assert_eq!(err.line(), 1);
        let err = parse_text("# ok\n0x10 int _ broken - -\n").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(
            parse_text("0x10 int _ _,_ m:12=3 -").is_err(),
            "missing width"
        );
        assert!(parse_text("0x10 int _ _,_ - b:maybe@0x10").is_err());
        assert!(
            parse_text("0x10 int x99 _,_ - -").is_err(),
            "register range"
        );
    }

    #[test]
    fn rejects_kind_inconsistent_records() {
        for (line, what) in [
            ("0x10000 load _ _,_ - -", "memory access"),
            ("0x10000 store _ x2,x3 - -", "memory access"),
            ("0x10000 branch _ x1,_ - -", "branch event"),
            ("0x10000 jump x1 _,_ - -", "branch event"),
            ("0x10000 ijump _ x1,_ - -", "branch event"),
        ] {
            let err = parse_text(&format!("0x0 int _ _,_ - -\n{line}\n")).unwrap_err();
            assert_eq!(err.line(), 2, "{line}");
            assert!(err.to_string().contains(what), "{line}: {err}");
        }
        assert!(parse_text("0x10000 branch _ x1,_ - b:not@0x10004\n").is_ok());
    }

    #[test]
    fn format_is_stable_and_greppable() {
        let text = dump_text(&sample());
        assert!(text.contains("0x10004 load x10 x2,_ m:0x100000/8=0x2a -"));
        assert!(text.contains("b:not@0x10010"));
        assert!(text.contains("mf:0x100008/8=0x7"));
    }
}

//! The length-framed request/response protocol.
//!
//! Every message is one [`dg_store::wire`] frame — the store's
//! magic/kind/version/length/checksum envelope lifted onto a stream —
//! with a serve-specific kind byte ([`KIND_REQUEST`] /
//! [`KIND_RESPONSE`]) and a [`ByteWriter`]-encoded payload. Reusing the
//! snapshot framing means a serve endpoint inherits the store's
//! corruption detection for free: truncation, garbling and
//! cross-wiring all surface as typed [`WireError`]s, never as
//! misparsed garbage.
//!
//! Query responses carry the **round** of the snapshot they were
//! answered from, so a client can assert round-atomicity: every answer
//! derived from one response is internally consistent with that round,
//! and rounds only move forward per connection.

use dg_store::wire::{read_wire_frame, write_wire_frame, WireError};
use dg_store::{ByteReader, ByteWriter};
use dg_trust::prelude::TransactionOutcome;
use std::io::{Read, Write};

/// Frame kind of a client→server message.
pub const KIND_REQUEST: u8 = 0x21;
/// Frame kind of a server→client message.
pub const KIND_RESPONSE: u8 = 0x22;

/// Requests are small and fixed-shape; anything longer is garbage.
pub(crate) const MAX_REQUEST_PAYLOAD: usize = 1024;
/// Responses are bounded by `top_k` over the scored subjects
/// (12 bytes per entry); 64 MiB covers five million entries.
pub(crate) const MAX_RESPONSE_PAYLOAD: usize = 64 << 20;

/// One client request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Request {
    /// The subject's network-wide mean reputation.
    Reputation {
        /// Subject node id.
        subject: u32,
    },
    /// The `k` highest-reputation subjects, descending.
    TopK {
        /// How many entries to return (clamped to the scored count); a `k`
        /// above 4,096 is answered with [`Response::Error`].
        k: u32,
    },
    /// Nearest-rank percentile over the scored subjects.
    Percentile {
        /// Percentile in `[0, 1]`.
        p: f64,
    },
    /// Submit one transaction report for the next round.
    Ingest {
        /// Ingest source id (the client's replay identity).
        source: u64,
        /// The source's own sequence number for this report.
        seq: u64,
        /// The node the report folds into.
        requester: u32,
        /// The provider the requester transacted with.
        provider: u32,
        /// What the requester observed.
        outcome: TransactionOutcome,
    },
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Reputation`].
    Reputation {
        /// The snapshot round this was answered from.
        round: u64,
        /// The subject's mean reputation (`None` while unscored).
        reputation: Option<f64>,
    },
    /// Answer to [`Request::TopK`].
    TopK {
        /// The snapshot round this was answered from.
        round: u64,
        /// `(subject, reputation)` descending; ties toward smaller ids.
        entries: Vec<(u32, f64)>,
    },
    /// Answer to [`Request::Percentile`].
    Percentile {
        /// The snapshot round this was answered from.
        round: u64,
        /// The percentile value (`None` while nothing is scored or the
        /// requested `p` is out of range).
        value: Option<f64>,
    },
    /// The ingest was accepted into the next round's buffer.
    IngestAccepted {
        /// Latest completed round when the report was accepted (it
        /// folds into a later round).
        round: u64,
    },
    /// The ingest channel is full: the report was **shed, not queued**
    /// — resubmit later. Queries are never busy.
    Busy,
    /// The request was malformed or rejected.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

fn put_outcome(w: &mut ByteWriter, outcome: TransactionOutcome) {
    match outcome {
        TransactionOutcome::Refused => w.put_u8(0),
        TransactionOutcome::Served { quality } => {
            w.put_u8(1);
            w.put_f64(quality);
        }
    }
}

fn get_outcome(r: &mut ByteReader<'_>) -> Result<TransactionOutcome, String> {
    match r.get_u8("outcome tag")? {
        0 => Ok(TransactionOutcome::Refused),
        1 => Ok(TransactionOutcome::Served {
            quality: r.get_f64("outcome quality")?,
        }),
        tag => Err(format!("bad outcome tag {tag}")),
    }
}

impl Request {
    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match *self {
            Request::Reputation { subject } => {
                w.put_u8(1);
                w.put_u32(subject);
            }
            Request::TopK { k } => {
                w.put_u8(2);
                w.put_u32(k);
            }
            Request::Percentile { p } => {
                w.put_u8(3);
                w.put_f64(p);
            }
            Request::Ingest {
                source,
                seq,
                requester,
                provider,
                outcome,
            } => {
                w.put_u8(4);
                w.put_u64(source);
                w.put_u64(seq);
                w.put_u32(requester);
                w.put_u32(provider);
                put_outcome(&mut w, outcome);
            }
        }
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut r = ByteReader::new(bytes);
        let req = match r.get_u8("request tag")? {
            1 => Request::Reputation {
                subject: r.get_u32("subject")?,
            },
            2 => Request::TopK { k: r.get_u32("k")? },
            3 => Request::Percentile { p: r.get_f64("p")? },
            4 => Request::Ingest {
                source: r.get_u64("source")?,
                seq: r.get_u64("seq")?,
                requester: r.get_u32("requester")?,
                provider: r.get_u32("provider")?,
                outcome: get_outcome(&mut r)?,
            },
            tag => return Err(format!("bad request tag {tag}")),
        };
        if !r.is_empty() {
            return Err("trailing bytes after request".into());
        }
        Ok(req)
    }
}

impl Response {
    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Response::Reputation { round, reputation } => {
                w.put_u8(1);
                w.put_u64(*round);
                w.put_opt_f64(*reputation);
            }
            Response::TopK { round, entries } => {
                w.put_u8(2);
                w.put_u64(*round);
                w.put_u32(entries.len() as u32);
                for &(subject, rep) in entries {
                    w.put_u32(subject);
                    w.put_f64(rep);
                }
            }
            Response::Percentile { round, value } => {
                w.put_u8(3);
                w.put_u64(*round);
                w.put_opt_f64(*value);
            }
            Response::IngestAccepted { round } => {
                w.put_u8(4);
                w.put_u64(*round);
            }
            Response::Busy => w.put_u8(5),
            Response::Error { message } => {
                w.put_u8(6);
                let bytes = message.as_bytes();
                w.put_u32(bytes.len() as u32);
                for &b in bytes {
                    w.put_u8(b);
                }
            }
        }
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut r = ByteReader::new(bytes);
        let resp = match r.get_u8("response tag")? {
            1 => Response::Reputation {
                round: r.get_u64("round")?,
                reputation: r.get_opt_f64("reputation")?,
            },
            2 => {
                let round = r.get_u64("round")?;
                let len = r.get_len("top-k entries", 12)?;
                let mut entries = Vec::with_capacity(len);
                for _ in 0..len {
                    let subject = r.get_u32("entry subject")?;
                    let rep = r.get_f64("entry reputation")?;
                    entries.push((subject, rep));
                }
                Response::TopK { round, entries }
            }
            3 => Response::Percentile {
                round: r.get_u64("round")?,
                value: r.get_opt_f64("value")?,
            },
            4 => Response::IngestAccepted {
                round: r.get_u64("round")?,
            },
            5 => Response::Busy,
            6 => {
                let len = r.get_len("error message", 1)?;
                let mut bytes = Vec::with_capacity(len);
                for _ in 0..len {
                    bytes.push(r.get_u8("error byte")?);
                }
                Response::Error {
                    message: String::from_utf8_lossy(&bytes).into_owned(),
                }
            }
            tag => return Err(format!("bad response tag {tag}")),
        };
        if !r.is_empty() {
            return Err("trailing bytes after response".into());
        }
        Ok(resp)
    }
}

fn corrupt(reason: String) -> WireError {
    WireError::Corrupt(reason)
}

/// Write one request frame.
pub fn write_request<W: Write>(w: &mut W, request: &Request) -> Result<(), WireError> {
    Ok(write_wire_frame(w, KIND_REQUEST, &request.encode())?)
}

/// Read one request frame.
pub fn read_request<R: Read>(r: &mut R) -> Result<Request, WireError> {
    let (kind, payload) = read_wire_frame(r, MAX_REQUEST_PAYLOAD)?;
    if kind != KIND_REQUEST {
        return Err(corrupt(format!(
            "frame kind {kind:#04x} where a request ({KIND_REQUEST:#04x}) was expected"
        )));
    }
    Request::decode(&payload).map_err(corrupt)
}

/// Write one response frame.
pub fn write_response<W: Write>(w: &mut W, response: &Response) -> Result<(), WireError> {
    Ok(write_wire_frame(w, KIND_RESPONSE, &response.encode())?)
}

/// Read one response frame.
pub fn read_response<R: Read>(r: &mut R) -> Result<Response, WireError> {
    let (kind, payload) = read_wire_frame(r, MAX_RESPONSE_PAYLOAD)?;
    if kind != KIND_RESPONSE {
        return Err(corrupt(format!(
            "frame kind {kind:#04x} where a response ({KIND_RESPONSE:#04x}) was expected"
        )));
    }
    Response::decode(&payload).map_err(corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Reputation { subject: 7 },
            Request::TopK { k: 10 },
            Request::Percentile { p: 0.5 },
            Request::Ingest {
                source: 3,
                seq: 41,
                requester: 1,
                provider: 2,
                outcome: TransactionOutcome::Served { quality: 0.75 },
            },
            Request::Ingest {
                source: 0,
                seq: 0,
                requester: 9,
                provider: 4,
                outcome: TransactionOutcome::Refused,
            },
        ];
        let mut buf = Vec::new();
        for req in &requests {
            write_request(&mut buf, req).expect("writes");
        }
        let mut r = &buf[..];
        for req in &requests {
            assert_eq!(&read_request(&mut r).expect("reads"), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::Reputation {
                round: 3,
                reputation: Some(0.25),
            },
            Response::Reputation {
                round: 0,
                reputation: None,
            },
            Response::TopK {
                round: 9,
                entries: vec![(4, 0.9), (1, 0.5)],
            },
            Response::Percentile {
                round: 2,
                value: Some(0.125),
            },
            Response::IngestAccepted { round: 5 },
            Response::Busy,
            Response::Error {
                message: "unknown node 99".into(),
            },
        ];
        let mut buf = Vec::new();
        for resp in &responses {
            write_response(&mut buf, resp).expect("writes");
        }
        let mut r = &buf[..];
        for resp in &responses {
            assert_eq!(&read_response(&mut r).expect("reads"), resp);
        }
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::TopK { k: 1 }).expect("writes");
        let err = read_response(&mut &buf[..]).expect_err("kind mismatch");
        assert!(matches!(err, WireError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn garbage_payload_is_rejected() {
        let mut buf = Vec::new();
        dg_store::wire::write_wire_frame(&mut buf, KIND_REQUEST, &[99]).expect("writes");
        let err = read_request(&mut &buf[..]).expect_err("bad tag");
        assert!(matches!(err, WireError::Corrupt(_)), "{err:?}");
    }
}

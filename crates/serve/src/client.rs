//! A small blocking client for the NDJSON protocol — used by the
//! `retime-client` binary, `bench_e2e`'s `serve_inline` workload, and
//! the integration tests.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use crate::json::{obj, parse, Json};

/// One connection to a running `retime-serve` daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7171`).
    ///
    /// # Errors
    /// Propagates connect / clone failures.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one raw request line and returns the parsed reply.
    ///
    /// # Errors
    /// I/O failures, a closed connection, or an unparseable reply.
    pub fn request_line(&mut self, line: &str) -> std::io::Result<Json> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        parse(&reply).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unparseable reply: {e}"),
            )
        })
    }

    /// Sends one command object and returns the parsed reply.
    ///
    /// # Errors
    /// Same as [`Client::request_line`].
    pub fn request(&mut self, v: &Json) -> std::io::Result<Json> {
        self.request_line(&v.render())
    }

    /// Submits a suite circuit and returns the reply (`status` is
    /// `queued`, `done`, or the call fails with an `overloaded` error
    /// object — inspect the returned JSON).
    ///
    /// # Errors
    /// Transport failures only; protocol-level rejections come back as
    /// the reply object.
    pub fn submit_suite(&mut self, circuit: &str, flow: &str, c: &str) -> std::io::Result<Json> {
        self.request(&obj(vec![
            ("cmd", Json::Str("submit".to_string())),
            ("circuit", Json::Str(circuit.to_string())),
            ("flow", Json::Str(flow.to_string())),
            ("c", Json::Str(c.to_string())),
        ]))
    }

    /// Blocks until job `id` finishes and returns the `result` reply.
    ///
    /// # Errors
    /// Transport failures only.
    pub fn wait_result(&mut self, id: u64) -> std::io::Result<Json> {
        self.request(&obj(vec![
            ("cmd", Json::Str("result".to_string())),
            ("id", Json::Num(id as f64)),
            ("wait", Json::Bool(true)),
        ]))
    }

    /// Fetches the Prometheus metrics text.
    ///
    /// # Errors
    /// Transport failures or a malformed reply.
    pub fn metrics_text(&mut self) -> std::io::Result<String> {
        let reply = self.request(&obj(vec![("cmd", Json::Str("metrics".to_string()))]))?;
        reply
            .get("metrics")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "reply without `metrics`")
            })
    }

    /// Asks the server to drain and exit.
    ///
    /// # Errors
    /// Transport failures only.
    pub fn shutdown(&mut self) -> std::io::Result<Json> {
        self.request(&obj(vec![("cmd", Json::Str("shutdown".to_string()))]))
    }
}

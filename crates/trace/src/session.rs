//! The [`TraceSession`] every table binary (and the serve daemon and
//! `retime-convert`) opens at startup from its [`TraceConfig`].

use std::path::PathBuf;

use crate::export::chrome_trace;
use crate::profile::render_profile;
use crate::span::{set_enabled, take_records};

/// Span names the profile table shows by default.
const PROFILE_TOP: usize = 20;

/// What a run asked of tracing. Binaries fill it from `RETIME_TRACE`
/// and `RETIME_TRACE_OUT` through `retime_bench::RunConfig`; this crate
/// reads no environment.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceConfig {
    /// Tracing on (`RETIME_TRACE` truthy, or `RETIME_TRACE_OUT` set).
    pub enabled: bool,
    /// Chrome-trace output path (`RETIME_TRACE_OUT`).
    pub out: Option<PathBuf>,
}

/// RAII wrapper a binary opens at startup: enables tracing per its
/// [`TraceConfig`], and on drop (or [`TraceSession::finish`]) drains
/// the recorded spans, writes the Chrome trace to the configured path
/// when set, and prints the self-time profile to **stderr** — stdout
/// rows stay byte-identical with tracing on or off.
#[must_use = "dropping the session immediately finalizes the trace"]
pub struct TraceSession {
    config: TraceConfig,
    finished: bool,
}

impl TraceSession {
    /// Opens a session with an explicit configuration.
    pub fn with_config(config: TraceConfig) -> TraceSession {
        if config.enabled {
            set_enabled(true);
        }
        TraceSession {
            config,
            finished: false,
        }
    }

    /// Whether this session turned tracing on.
    pub fn active(&self) -> bool {
        self.config.enabled
    }

    fn finalize(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        if !self.config.enabled {
            return;
        }
        set_enabled(false);
        let records = take_records();
        if let Some(path) = &self.config.out {
            let text = chrome_trace(&records);
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("warning: cannot write trace to {}: {e}", path.display());
            } else {
                eprintln!(
                    "trace: wrote {} spans to {} (load in https://ui.perfetto.dev)",
                    records.len(),
                    path.display()
                );
            }
        }
        eprintln!(
            "trace: self-time profile ({} spans)\n{}",
            records.len(),
            render_profile(&records, PROFILE_TOP)
        );
    }

    /// Finalizes explicitly (identical to dropping the session).
    pub fn finish(mut self) {
        self.finalize();
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        self.finalize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_session_is_a_no_op() {
        let session = TraceSession::with_config(TraceConfig::default());
        assert!(!session.active());
        session.finish();
    }
}

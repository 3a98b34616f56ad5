//! The `RETIME_CONVERT_CHECK` environment knob.
//!
//! Controls whether [`mod@crate::convert`] proves the converted circuit
//! functionally equivalent to its FF source by simulation. Parsing and
//! warn-once fallback follow the exact shape of the workspace's other
//! knobs (`RETIME_THREADS`, `RETIME_SUITE`): an unrecognized value
//! prints one warning to stderr and falls back to automatic selection.

/// How conversion responds to equivalence-check requests — the
/// `RETIME_CONVERT_CHECK` environment knob (`0` | `1` | `auto`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckMode {
    /// Never simulate (`RETIME_CONVERT_CHECK=0`) — for bulk format
    /// conversion where throughput matters more than the proof.
    Off,
    /// Always simulate, even where a call site defaults off.
    /// (`RETIME_CONVERT_CHECK=1`.)
    On,
    /// Default: each call site picks (the CLI and serve check; the
    /// throughput bench does not).
    #[default]
    Auto,
}

impl CheckMode {
    /// Parses a raw `RETIME_CONVERT_CHECK` value. `Err` carries the
    /// one-line warning to print — the same shape the other env knobs
    /// use, so they all fail the same way.
    ///
    /// # Errors
    /// Returns the warning line when the value is unrecognized.
    pub fn parse(raw: &str) -> Result<CheckMode, String> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "0" | "off" | "false" => Ok(CheckMode::Off),
            "1" | "on" | "true" => Ok(CheckMode::On),
            "auto" => Ok(CheckMode::Auto),
            _ => Err(format!(
                "warning: unrecognized RETIME_CONVERT_CHECK value {raw:?}; \
                 accepted values are \"0\", \"1\", or \"auto\" — using \
                 automatic selection"
            )),
        }
    }

    /// The `RETIME_CONVERT_CHECK` selection, warning once on stderr for
    /// an unrecognized value (falls back to automatic selection).
    pub fn from_env() -> CheckMode {
        match std::env::var("RETIME_CONVERT_CHECK") {
            Ok(raw) => CheckMode::parse(&raw).unwrap_or_else(|warning| {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| eprintln!("{warning}"));
                CheckMode::Auto
            }),
            Err(_) => CheckMode::Auto,
        }
    }

    /// Resolves the mode against a call site's automatic default.
    #[must_use]
    pub fn resolve(self, auto_default: bool) -> bool {
        match self {
            CheckMode::Off => false,
            CheckMode::On => true,
            CheckMode::Auto => auto_default,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_accepted_values() {
        for (raw, want) in [
            ("0", CheckMode::Off),
            ("off", CheckMode::Off),
            ("FALSE", CheckMode::Off),
            ("1", CheckMode::On),
            (" on ", CheckMode::On),
            ("True", CheckMode::On),
            ("auto", CheckMode::Auto),
            ("AUTO", CheckMode::Auto),
        ] {
            assert_eq!(CheckMode::parse(raw), Ok(want), "{raw:?}");
        }
    }

    #[test]
    fn rejects_garbage_with_the_shared_warning_shape() {
        let warning = CheckMode::parse("yes please").unwrap_err();
        // The exact phrasing every knob shares: "warning: unrecognized
        // <VAR> value <raw>; accepted values are … — using …".
        assert!(warning.starts_with("warning: unrecognized RETIME_CONVERT_CHECK value"));
        assert!(warning.contains("\"yes please\""));
        assert!(warning.contains("accepted values are"));
        assert!(warning.contains("using automatic selection"));
        assert!(!warning.contains('\n'));
    }

    #[test]
    fn resolve_honors_call_site_default_only_on_auto() {
        assert!(!CheckMode::Off.resolve(true));
        assert!(CheckMode::On.resolve(false));
        assert!(CheckMode::Auto.resolve(true));
        assert!(!CheckMode::Auto.resolve(false));
    }

    #[test]
    fn default_is_auto() {
        assert_eq!(CheckMode::default(), CheckMode::Auto);
    }
}

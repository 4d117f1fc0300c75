//! Harness-side observability glue: the process-wide wall clock, the
//! shared health footer every fig binary prints, and the `--metrics-out`
//! JSON writer.
//!
//! The harness is the **only** place wall time may enter the pipeline
//! (`clippy.toml` bans raw `Instant` and `SystemTime` even here), and it
//! enters exactly once: [`wall`] hands out one process-wide
//! [`WallClock`]. Fig binaries install it on their pipelines' registries
//! so timing-plane instruments carry real nanoseconds, and time code
//! with [`dam_obs::Stopwatch`] over the same clock.

use dam_obs::{Registry, WallClock};
use dam_stream::PipelineHealth;
use std::io;
use std::path::Path;
use std::sync::OnceLock;

/// The process-wide wall clock (lazily constructed; its origin is the
/// first call, which is fine — consumers only subtract readings).
pub fn wall() -> &'static WallClock {
    static WALL: OnceLock<WallClock> = OnceLock::new();
    WALL.get_or_init(WallClock::new)
}

/// The one health footer format every fig binary prints (they used to
/// hand-roll near-copies): `<label> health: <summary>`.
pub fn health_footer(label: &str, health: &PipelineHealth) -> String {
    format!("{label} health: {}", health.summary())
}

/// Writes the registries' snapshots as one JSON document to `path`
/// (creating parent directories), keyed by section name:
/// `{"<section>": <snapshot>, ...}`. This is what `--metrics-out`
/// produces; section names are the binary's pipeline labels.
pub fn write_metrics(path: &Path, sections: &[(&str, &Registry)]) -> io::Result<()> {
    let mut out = String::from("{");
    for (i, (name, reg)) in sections.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Section labels are ASCII mechanism/K labels; escape the two
        // characters that could break the document anyway.
        let escaped = name.replace('\\', "\\\\").replace('"', "\\\"");
        out.push('"');
        out.push_str(&escaped);
        out.push_str("\":");
        out.push_str(&reg.snapshot().to_json());
    }
    out.push('}');
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_obs::{Clock, Plane};

    #[test]
    fn health_footer_matches_the_pinned_shape() {
        let h = PipelineHealth::default();
        let line = health_footer("K=4", &h);
        assert!(line.starts_with("K=4 health: "), "{line}");
        assert!(line.contains("seen 0"), "{line}");
    }

    #[test]
    fn write_metrics_emits_one_object_per_section() {
        let a = Registry::new();
        a.counter("ingest_reports_seen", Plane::Deterministic).add(3);
        let b = Registry::new();
        let dir = std::env::temp_dir().join(format!("dam-obs-test-{}", std::process::id()));
        let path = dir.join("metrics.json");
        write_metrics(&path, &[("DAM", &a), ("HUEM", &b)]).expect("write");
        let doc = std::fs::read_to_string(&path).expect("read back");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(doc.starts_with('{') && doc.ends_with('}'), "{doc}");
        assert!(doc.contains("\"DAM\":{"), "{doc}");
        assert!(doc.contains("\"HUEM\":{"), "{doc}");
        assert!(doc.contains("\"ingest_reports_seen\""), "{doc}");
    }

    #[test]
    fn wall_clock_is_shared_and_monotone() {
        let a = wall().now_ns();
        let b = wall().now_ns();
        assert!(b >= a);
        assert!(std::ptr::eq(wall(), wall()), "one process-wide clock");
    }
}

//! Display/IO helpers shared by the runners.

use std::io;
use std::path::PathBuf;

/// Creates the results directory (and parents) if missing and returns
/// its path. For artifacts written next to the JSON envelope (pcaps).
pub fn ensure_results_dir() -> io::Result<PathBuf> {
    let dir = polite_wifi_harness::results_dir();
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// An ASCII bar for quick figure-shaped output.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = ((value / max).clamp(0.0, 1.0) * width as f64).round() as usize;
    let mut s = "█".repeat(filled);
    s.push_str(&"·".repeat(width - filled));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        assert_eq!(bar(0.0, 10.0, 10), "··········");
        assert_eq!(bar(10.0, 10.0, 10), "██████████");
        assert_eq!(bar(5.0, 10.0, 10).chars().filter(|&c| c == '█').count(), 5);
        // Overflow clamps.
        assert_eq!(bar(20.0, 10.0, 4), "████");
    }
}

//! Seeded inputs. The program only ever sees what these functions
//! generate; the seed never reaches it directly.

use varitune_libchar::{generate_nominal, GenerateConfig};
use varitune_variation::Xoshiro256PlusPlus;

/// What opens the library group; a rename inserts its tag right after.
const LIBRARY_HEADER: &str = "library (";

/// The full 304-cell Liberty text (about 6 MB), named after `tag`.
/// Renaming changes the content hash but no timing value.
pub fn liberty_text(tag: &str) -> Result<String, String> {
    let lib = generate_nominal(&GenerateConfig::full());
    let text = varitune_liberty::write_library(&lib)
        .map_err(|e| format!("generated library failed to serialize: {e}"))?;
    Ok(renamed(&text, tag))
}

/// `text` with its library renamed to `<tag>_<name>`. Works on raw and
/// on JSON-escaped text alike, since the header has nothing to escape.
pub fn renamed(text: &str, tag: &str) -> String {
    text.replacen(LIBRARY_HEADER, &format!("{LIBRARY_HEADER}{tag}_"), 1)
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut Xoshiro256PlusPlus) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renaming_touches_only_the_header() {
        let text = "library (TT) {\n  cell (library (x)) {}\n}\n";
        assert_eq!(
            renamed(text, "s7"),
            "library (s7_TT) {\n  cell (library (x)) {}\n}\n"
        );
    }
}

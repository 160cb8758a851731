//! Tokenization for intent classification: lowercase alphanumeric tokens
//! with optional bigram features.

/// Splits text into lowercase tokens of letters/digits; everything else is
/// a separator. Apostrophes inside words are dropped (`don't` → `dont`) so
/// contractions don't fragment.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_token(text, |token| tokens.push(token.to_string()));
    tokens
}

/// Calls `f` on each token [`tokenize`] would return, in order, through
/// one reused buffer instead of a `String` per token.
pub fn for_each_token(text: &str, mut f: impl FnMut(&str)) {
    // Room for any common token, so the buffer rarely grows.
    let mut current = String::with_capacity(32);
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            current.extend(ch.to_lowercase());
        } else if ch == '\'' || ch == '’' {
            // skip – joins contractions
        } else if !current.is_empty() {
            f(light_stem(&current));
            current.clear();
        }
    }
    if !current.is_empty() {
        f(light_stem(&current));
    }
}

/// Strips a single plural `s` from tokens longer than 3 characters (but
/// not `ss` endings): `risks` -> `risk`, `class` -> `class`. Crude, but
/// applied identically at train and predict time, which is what matters.
fn light_stem(token: &str) -> &str {
    if token.len() > 3 && token.ends_with('s') && !token.ends_with("ss") {
        &token[..token.len() - 1]
    } else {
        token
    }
}

/// Produces unigram + bigram feature strings. Bigrams are joined with `_`
/// and let the classifier distinguish e.g. "dose adjustment" from "dosage".
pub fn features(text: &str) -> Vec<String> {
    let unigrams = tokenize(text);
    let mut feats = Vec::with_capacity(unigrams.len() * 2);
    for w in unigrams.windows(2) {
        feats.push(format!("{}_{}", w[0], w[1]));
    }
    feats.extend(unigrams);
    feats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_tokenization() {
        assert_eq!(
            tokenize("Show me the Precautions for Aspirin?"),
            vec!["show", "me", "the", "precaution", "for", "aspirin"]
        );
    }

    #[test]
    fn punctuation_and_numbers() {
        assert_eq!(tokenize("0.05% gel, 12 years!"), vec!["0", "05", "gel", "12", "year"]);
    }

    #[test]
    fn contractions_join() {
        assert_eq!(tokenize("don't what's"), vec!["dont", "what"]);
        assert_eq!(tokenize("it’s"), vec!["its"]);
    }

    #[test]
    fn unicode_lowercasing() {
        assert_eq!(tokenize("Naïve Ärzte"), vec!["naïve", "ärzte"]);
    }

    #[test]
    fn empty_and_symbol_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!?---").is_empty());
    }

    #[test]
    fn features_include_bigrams() {
        let f = features("dose adjustment aspirin");
        assert!(f.contains(&"dose_adjustment".to_string()));
        assert!(f.contains(&"adjustment_aspirin".to_string()));
        assert!(f.contains(&"dose".to_string()));
        assert_eq!(f.len(), 5);
    }

    #[test]
    fn single_token_has_no_bigrams() {
        assert_eq!(features("aspirin"), vec!["aspirin"]);
    }
}

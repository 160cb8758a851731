//! Conversation-management patterns (paper §5.2 step 3).
//!
//! These are the domain-independent interaction patterns of the Natural
//! Conversation Framework \[24\] that the dialogue tree is augmented with:
//! sequence-level patterns (repairs, acknowledgements, aborts — the "B"
//! patterns, e.g. *B2.5.0 Definition Request Repair*) and
//! conversation-level patterns (openings, closings, capability checks —
//! the "A" patterns).
//!
//! **Substitution note (DESIGN.md):** the paper reuses the 32 + 39 generic
//! patterns of Moore & Arar's NCF template, which is published as a book,
//! not as data. This module ships a catalog implementing the pattern
//! *mechanism* faithfully — ids, levels, trigger phrases, response
//! templates, and the repair semantics the paper demonstrates (definition
//! request, repeat request, appreciation, closing, abort) — with a
//! representative catalog that covers every pattern family the paper's
//! transcripts exercise. The catalog is data-driven and extensible.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// Lowercase, alphanumeric words joined by single spaces — the same
/// normal form the lexicon matches.
pub use obcs_nlq::annotate::normalize;

/// Whether a pattern manages a single sequence or the whole conversation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PatternLevel {
    /// "B" patterns: repairs and acknowledgements within a sequence.
    Sequence,
    /// "A" patterns: openings, closings, capability management.
    Conversation,
}

/// The dialogue action a management pattern triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ManagementAction {
    /// User greets; agent greets back and offers help.
    Greeting,
    /// User asks what the agent can do.
    CapabilityCheck,
    /// User asks for help / instructions.
    HelpRequest,
    /// User thanks the agent; agent receipts and checks for a next topic.
    Appreciation,
    /// Positive acknowledgement ("okay", "got it").
    Acknowledgement,
    /// User affirms a proposal ("yes").
    Affirm,
    /// User declines / has no further topic ("no").
    Deny,
    /// User asks the agent to repeat its last utterance (B2.1 family).
    RepeatRequest,
    /// User asks what a term means (B2.5.0 Definition Request Repair).
    DefinitionRequest,
    /// User asks the agent to rephrase (paraphrase repair).
    ParaphraseRequest,
    /// User aborts the current sequence ("never mind").
    Abort,
    /// User closes the conversation ("goodbye").
    Closing,
    /// Social niceties the agent deflects politely ("how are you").
    Chitchat,
    /// User compliments the agent.
    Praise,
    /// User complains / insults; agent de-escalates.
    Complaint,
}

/// One management pattern of the catalog.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManagementPattern {
    /// NCF-style pattern id, e.g. `B2.5.0`.
    pub id: String,
    pub level: PatternLevel,
    pub name: String,
    pub action: ManagementAction,
    /// Normalised trigger phrases. A `*` matches any non-empty span:
    /// `what do you mean by *` is a prefix pattern, `what does * mean`
    /// an infix pattern. A phrase without one must equal the whole
    /// (normalised) utterance.
    pub triggers: Vec<String>,
    /// Agent response template; `{repeat}`, `{definition}`, `{term}` are
    /// substituted by the engine.
    pub response: String,
}

impl ManagementPattern {
    fn new(
        id: &str,
        level: PatternLevel,
        name: &str,
        action: ManagementAction,
        triggers: &[&str],
        response: &str,
    ) -> Self {
        ManagementPattern {
            id: id.to_string(),
            level,
            name: name.to_string(),
            action,
            triggers: triggers.iter().map(|s| s.to_string()).collect(),
            response: response.to_string(),
        }
    }
}

/// The catalog of conversation-management patterns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(from = "CatalogPatterns")]
pub struct ManagementCatalog {
    patterns: Vec<ManagementPattern>,
    /// Exact trigger → index of the first pattern that holds it.
    #[serde(skip)]
    exact: HashMap<String, usize>,
    /// Wildcard triggers as (pattern index, trigger index), in catalog
    /// order.
    #[serde(skip)]
    wildcards: Vec<(usize, usize)>,
}

/// The serialised form of a [`ManagementCatalog`]: its patterns alone;
/// the trigger lookups are rebuilt from them.
#[derive(Deserialize)]
struct CatalogPatterns {
    patterns: Vec<ManagementPattern>,
}

impl From<CatalogPatterns> for ManagementCatalog {
    fn from(c: CatalogPatterns) -> Self {
        ManagementCatalog::from_patterns(c.patterns)
    }
}

impl Default for ManagementCatalog {
    fn default() -> Self {
        ManagementCatalog::standard()
    }
}

impl ManagementCatalog {
    /// The built-in catalog.
    pub fn standard() -> Self {
        use ManagementAction::*;
        use PatternLevel::*;
        let p = ManagementPattern::new;
        ManagementCatalog::from_patterns(
            vec![
                // --- Conversation-level (A) patterns ---
                p("A1.0", Conversation, "Opening Greeting", Greeting,
                  &["hello", "hello there", "hi", "hi there", "hey", "hey there", "good morning", "good afternoon", "good evening", "good day", "greetings"],
                  "Hello. This is {agent}. If this is your first time, just ask for help. How can I help you today?"),
                p("A1.1", Conversation, "Capability Check", CapabilityCheck,
                  &["what can you do", "what do you do", "what can i ask", "what can i ask you", "what are you capable of", "capabilities"],
                  "I can answer questions about {capabilities}. Try asking, for example: {example}"),
                p("A1.2", Conversation, "Help Request", HelpRequest,
                  &["help", "i need help", "help me", "help me out", "how do i use this", "how does this work", "how do i search", "instructions", "what should i type"],
                  "You can ask me about {capabilities}. For example: {example}"),
                p("A2.0", Conversation, "Closing", Closing,
                  &["goodbye", "bye", "bye bye", "bye now", "goodbye now", "see you", "see you later", "see ya", "quit", "exit", "that is all", "thats all", "thats all for today", "im done", "i am done"],
                  "Thank you for using {agent}. Goodbye."),
                p("A2.1", Conversation, "Identity Check", Chitchat,
                  &["who are you", "what are you", "are you a robot", "are you human", "whats your name", "what is your name"],
                  "I am {agent}, a conversational assistant for this knowledge base."),
                p("A2.2", Conversation, "Well-being Chitchat", Chitchat,
                  &["how are you", "hows it going", "how are you doing", "whats up"],
                  "I'm doing well, thank you. How can I help you today?"),
                p("A2.3", Conversation, "Praise Receipt", Praise,
                  &["good job", "well done", "you are great", "youre great", "awesome", "great", "nice", "perfect", "excellent"],
                  "Thank you! Anything else I can help with?"),
                p("A2.4", Conversation, "Complaint Receipt", Complaint,
                  &["you are useless", "youre useless", "this is wrong", "that is wrong", "you are not helping", "terrible", "this is terrible", "bad bot"],
                  "I'm sorry I couldn't help with that. Could you rephrase your question, or ask for help to see what I can do?"),
                // --- Sequence-level (B) patterns ---
                p("B1.0", Sequence, "Acknowledgement", Acknowledgement,
                  &["ok", "okay", "got it", "i see", "alright", "sure", "fine", "cool", "uh huh"],
                  "Anything else?"),
                p("B1.1", Sequence, "Appreciation", Appreciation,
                  &["thanks", "thank you", "thanks a lot", "thank you very much", "thx", "ty", "much appreciated"],
                  "You're welcome! Anything else?"),
                p("B1.2", Sequence, "Affirmation", Affirm,
                  &["yes", "yeah", "yep", "yes please", "sure thing", "correct", "right", "affirmative", "y"],
                  "{affirm}"),
                p("B1.3", Sequence, "Disconfirmation", Deny,
                  &["no", "nope", "no thanks", "no thank you", "nah", "negative", "n"],
                  "OK. Please modify your search."),
                p("B2.1.0", Sequence, "Repeat Request Repair", RepeatRequest,
                  &["what did you say", "can you repeat that", "repeat that", "say that again", "pardon", "sorry what", "come again", "repeat please"],
                  "I said: {repeat}"),
                p("B2.5.0", Sequence, "Definition Request Repair", DefinitionRequest,
                  &["what do you mean by *", "what does * mean", "define *", "definition of *", "meaning of *"],
                  "Oh. {term} is {definition}"),
                p("B2.6.0", Sequence, "Paraphrase Request Repair", ParaphraseRequest,
                  &["what do you mean", "can you rephrase", "rephrase that", "i dont understand", "i do not understand", "can you say that differently"],
                  "Let me put it differently: {repeat}"),
                p("B3.0", Sequence, "Sequence Abort", Abort,
                  &["never mind", "nevermind", "forget it", "cancel", "cancel that", "stop", "skip it", "drop it"],
                  "OK, never mind. What else can I help you with?"),
                // --- Additional NCF-style patterns (the paper's template
                // carries 32 sequence-level + 39 conversation-level
                // patterns; these extend coverage of the common families).
                p("A1.3", Conversation, "Opening With Request For Agent", Greeting,
                  &["is anyone there", "are you there", "anybody home", "you there"],
                  "I'm here. This is {agent}. How can I help you?"),
                p("A1.4", Conversation, "Return Greeting", Greeting,
                  &["hello again", "hi again", "im back", "i am back", "back again"],
                  "Welcome back. What can I help you with?"),
                p("A2.5", Conversation, "Origin Check", Chitchat,
                  &["where are you from", "who made you", "who built you", "who created you"],
                  "I was assembled from a domain ontology and its knowledge base."),
                p("A2.6", Conversation, "Age Check", Chitchat,
                  &["how old are you", "when were you born", "whats your age"],
                  "I'm as old as my last knowledge-base refresh."),
                p("A2.7", Conversation, "Feelings Check", Chitchat,
                  &["do you have feelings", "are you alive", "are you sentient", "do you sleep"],
                  "I only have answers, not feelings. What would you like to know?"),
                p("A3.0", Conversation, "Language Check", CapabilityCheck,
                  &["do you speak english", "what languages do you speak", "habla espanol", "parlez vous francais"],
                  "I currently understand English questions about this knowledge base."),
                p("A3.1", Conversation, "Scope Check", CapabilityCheck,
                  &["can you call a doctor", "can you prescribe", "can you order medication", "can you diagnose me"],
                  "I can only answer reference questions about {capabilities} — I can't take clinical actions."),
                p("A4.0", Conversation, "Closing Appreciation", Closing,
                  &["thanks goodbye", "thanks bye", "thank you goodbye", "thank you bye", "ok bye", "okay bye"],
                  "You're welcome. Thank you for using {agent}. Goodbye."),
                p("B1.4", Sequence, "Enthusiastic Acknowledgement", Acknowledgement,
                  &["wonderful", "fantastic", "amazing", "brilliant", "sweet"],
                  "Glad that helped. Anything else?"),
                p("B1.5", Sequence, "Continuer", Acknowledgement,
                  &["go on", "continue", "and then", "tell me more", "more"],
                  "That's the full answer I have. You can ask about a related topic."),
                p("B2.2.0", Sequence, "Partial Repeat Request", RepeatRequest,
                  &["the last part again", "repeat the last part", "what was the last part", "say the end again"],
                  "Here it is again: {repeat}"),
                p("B2.3.0", Sequence, "Hearing Check", RepeatRequest,
                  &["did you say something", "sorry i missed that", "i didnt catch that", "i did not catch that"],
                  "I said: {repeat}"),
                p("B2.7.0", Sequence, "Spelling Request", DefinitionRequest,
                  &["how do you spell *", "spell *", "spelling of *"],
                  "{term} is spelled exactly as shown: {term}."),
                p("B4.0", Sequence, "Hold Request", Acknowledgement,
                  &["hold on", "one moment", "wait", "give me a second", "just a minute", "hang on"],
                  "Take your time. I'll be here."),
                p("B5.0", Sequence, "Correction Marker", Abort,
                  &["thats wrong", "that is not right", "thats not what i asked", "that is not what i asked", "not what i meant"],
                  "Sorry about that. Could you rephrase your question?"),
                p("B6.0", Sequence, "Completion Check", CapabilityCheck,
                  &["is that all", "is that everything", "anything else i should know"],
                  "That's everything recorded for this request. You can ask about {capabilities}."),
            ],
        )
    }

    /// A catalog of `patterns`, in order.
    fn from_patterns(patterns: Vec<ManagementPattern>) -> Self {
        let mut catalog = ManagementCatalog {
            patterns: Vec::new(),
            exact: HashMap::new(),
            wildcards: Vec::new(),
        };
        for pattern in patterns {
            catalog.add(pattern);
        }
        catalog
    }

    /// The patterns, in catalog order.
    pub fn patterns(&self) -> &[ManagementPattern] {
        &self.patterns
    }

    /// Finds the first pattern, in catalog order, matching a raw
    /// utterance, if any. Exact triggers are one hash lookup; only the
    /// wildcard triggers of earlier patterns are scanned.
    pub fn detect(&self, utterance: &str) -> Option<&ManagementPattern> {
        let normalized = normalize(utterance);
        if normalized.is_empty() {
            return None;
        }
        let exact = self.exact.get(&normalized).copied();
        let wildcard = self
            .wildcards
            .iter()
            .take_while(|&&(p, _)| exact.is_none_or(|e| p < e))
            .find(|&&(p, t)| wildcard_capture(&self.patterns[p].triggers[t], &normalized).is_some())
            .map(|&(p, _)| p);
        wildcard.or(exact).map(|p| &self.patterns[p])
    }

    /// Patterns at a given level.
    pub fn at_level(&self, level: PatternLevel) -> impl Iterator<Item = &ManagementPattern> {
        self.patterns.iter().filter(move |p| p.level == level)
    }

    /// Adds a custom pattern (designer extension).
    pub fn add(&mut self, pattern: ManagementPattern) {
        let at = self.patterns.len();
        for (t, trigger) in pattern.triggers.iter().enumerate() {
            if trigger.contains('*') {
                self.wildcards.push((at, t));
            } else {
                self.exact.entry(trigger.clone()).or_insert(at);
            }
        }
        self.patterns.push(pattern);
    }

    /// Extracts the `*`-captured term from a definition-style utterance,
    /// e.g. "what do you mean by effective" → `effective`, "what does
    /// contraindication mean" → `contraindication`.
    pub fn captured_term(pattern: &ManagementPattern, utterance: &str) -> Option<String> {
        let normalized = normalize(utterance);
        pattern
            .triggers
            .iter()
            .filter(|t| t.contains('*'))
            .find_map(|t| wildcard_capture(t, &normalized).flatten())
    }
}

/// Matches a trigger (optionally containing one `*` wildcard) against a
/// normalised utterance. Returns `Some(capture)` on a match — `capture` is
/// `None` for exact triggers and `Some(span)` for wildcard triggers. The
/// wildcard span must be non-empty.
fn wildcard_capture(trigger: &str, normalized: &str) -> Option<Option<String>> {
    match trigger.split_once('*') {
        None => (normalized == trigger).then_some(None),
        Some((prefix, suffix)) => {
            let prefix = prefix.trim_end();
            let suffix = suffix.trim_start();
            let rest = normalized.strip_prefix(prefix)?;
            let middle = rest.strip_suffix(suffix)?;
            let middle = middle.trim();
            (!middle.is_empty()).then(|| Some(middle.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_both_levels() {
        let c = ManagementCatalog::standard();
        assert!(c.at_level(PatternLevel::Conversation).count() >= 6);
        assert!(c.at_level(PatternLevel::Sequence).count() >= 6);
    }

    #[test]
    fn greeting_detection() {
        let c = ManagementCatalog::standard();
        let p = c.detect("Hello!").unwrap();
        assert_eq!(p.action, ManagementAction::Greeting);
        assert!(c.detect("hello there my friend how do drugs work").is_none());
    }

    #[test]
    fn appreciation_and_acknowledgement() {
        let c = ManagementCatalog::standard();
        assert_eq!(c.detect("thanks").unwrap().action, ManagementAction::Appreciation);
        assert_eq!(c.detect("  OKAY ").unwrap().action, ManagementAction::Acknowledgement);
    }

    #[test]
    fn definition_request_with_term_capture() {
        let c = ManagementCatalog::standard();
        let p = c.detect("what do you mean by effective?").unwrap();
        assert_eq!(p.action, ManagementAction::DefinitionRequest);
        assert_eq!(p.id, "B2.5.0");
        assert_eq!(
            ManagementCatalog::captured_term(p, "what do you mean by effective?").as_deref(),
            Some("effective")
        );
    }

    #[test]
    fn bare_what_do_you_mean_is_paraphrase() {
        let c = ManagementCatalog::standard();
        let p = c.detect("what do you mean?").unwrap();
        // No captured term → pattern order puts definition first, but the
        // captured term is None, which the tree uses to fall back to
        // paraphrase behaviour.
        assert!(ManagementCatalog::captured_term(p, "what do you mean?").is_none());
    }

    #[test]
    fn repeat_and_abort_and_closing() {
        let c = ManagementCatalog::standard();
        assert_eq!(c.detect("What did you say?").unwrap().action, ManagementAction::RepeatRequest);
        assert_eq!(c.detect("never mind").unwrap().action, ManagementAction::Abort);
        assert_eq!(c.detect("goodbye").unwrap().action, ManagementAction::Closing);
    }

    #[test]
    fn yes_no_detection() {
        let c = ManagementCatalog::standard();
        assert_eq!(c.detect("yes").unwrap().action, ManagementAction::Affirm);
        assert_eq!(c.detect("no").unwrap().action, ManagementAction::Deny);
    }

    #[test]
    fn domain_queries_do_not_match() {
        let c = ManagementCatalog::standard();
        assert!(c.detect("show me drugs that treat psoriasis").is_none());
        assert!(c.detect("dosage for tazarotene").is_none());
        assert!(c.detect("").is_none());
        assert!(c.detect("   ?!").is_none());
    }

    #[test]
    fn prefix_trigger_requires_content() {
        let c = ManagementCatalog::standard();
        // "define" alone: prefix matches with empty remainder → captured
        // term is None but the pattern still matches the bare prefix.
        let p = c.detect("define aspirin").unwrap();
        assert_eq!(p.action, ManagementAction::DefinitionRequest);
        assert_eq!(
            ManagementCatalog::captured_term(p, "define aspirin").as_deref(),
            Some("aspirin")
        );
    }

    #[test]
    fn custom_pattern_extension() {
        let mut c = ManagementCatalog::standard();
        c.add(ManagementPattern::new(
            "B9.9",
            PatternLevel::Sequence,
            "Joke Request",
            ManagementAction::Chitchat,
            &["tell me a joke"],
            "I'm better at drug facts than jokes.",
        ));
        assert_eq!(c.detect("tell me a joke").unwrap().id, "B9.9");
    }

    #[test]
    fn normalize_strips_punctuation() {
        assert_eq!(normalize("  What did you SAY?! "), "what did you say");
        assert_eq!(normalize("™☃"), "");
    }
}

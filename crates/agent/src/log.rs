//! Interaction logging and user feedback capture — the raw material of the
//! paper's §7 evaluation (success rate per Equation 1).

use obcs_core::IntentId;
use serde::{Deserialize, Serialize};

use crate::engine::ReplyKind;

/// Thumbs feedback on one interaction (paper Fig. 14: feedback buttons).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Feedback {
    ThumbsUp,
    ThumbsDown,
}

/// One logged interaction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InteractionRecord {
    pub turn: usize,
    pub utterance: String,
    /// Detected domain intent (after thresholding), if any.
    pub intent: Option<IntentId>,
    pub confidence: Option<f64>,
    /// How the agent replied: the reply's kind.
    pub action: ReplyKind,
    pub response: String,
    pub feedback: Option<Feedback>,
}

/// The interaction log of one agent instance.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct InteractionLog {
    pub records: Vec<InteractionRecord>,
}

impl InteractionLog {
    pub fn new() -> Self {
        InteractionLog::default()
    }

    pub fn push(&mut self, record: InteractionRecord) {
        self.records.push(record);
    }

    /// Attaches feedback to the most recent interaction.
    pub fn feedback_on_last(&mut self, feedback: Feedback) {
        if let Some(last) = self.records.last_mut() {
            last.feedback = Some(feedback);
        }
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Success rate per the paper's Equation 1: interactions not marked
    /// negative over all interactions. Returns `None` for an empty log.
    pub fn success_rate(&self) -> Option<f64> {
        if self.records.is_empty() {
            return None;
        }
        let negative =
            self.records.iter().filter(|r| r.feedback == Some(Feedback::ThumbsDown)).count();
        Some((self.records.len() - negative) as f64 / self.records.len() as f64)
    }

    /// Success rate restricted to one intent.
    pub fn success_rate_for(&self, intent: IntentId) -> Option<f64> {
        let of_intent: Vec<&InteractionRecord> =
            self.records.iter().filter(|r| r.intent == Some(intent)).collect();
        if of_intent.is_empty() {
            return None;
        }
        let negative =
            of_intent.iter().filter(|r| r.feedback == Some(Feedback::ThumbsDown)).count();
        Some((of_intent.len() - negative) as f64 / of_intent.len() as f64)
    }

    /// Serialises the log as JSON Lines (one record per line) — the
    /// format the 7-month usage statistics of §7.2 are accumulated in.
    pub fn to_jsonl(&self) -> String {
        self.records
            .iter()
            .map(|r| serde_json::to_string(r).expect("record serialises"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Parses a JSON Lines log; blank lines are skipped, malformed lines
    /// are returned as errors with their line number.
    pub fn from_jsonl(text: &str) -> Result<Self, (usize, serde_json::Error)> {
        let mut log = InteractionLog::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record = serde_json::from_str(line).map_err(|e| (i + 1, e))?;
            log.push(record);
        }
        Ok(log)
    }

    /// Appends another log's records (merging per-session logs into the
    /// long-running usage log).
    pub fn merge(&mut self, other: &InteractionLog) {
        self.records.extend(other.records.iter().cloned());
    }

    /// Interaction counts per intent, descending — the paper's usage
    /// statistics (Table 5 "Usage" column).
    pub fn usage_by_intent(&self) -> Vec<(IntentId, usize)> {
        let mut counts: Vec<(IntentId, usize)> = Vec::new();
        for r in &self.records {
            if let Some(i) = r.intent {
                match counts.iter_mut().find(|(id, _)| *id == i) {
                    Some((_, c)) => *c += 1,
                    None => counts.push((i, 1)),
                }
            }
        }
        counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(turn: usize, intent: Option<u32>, fb: Option<Feedback>) -> InteractionRecord {
        InteractionRecord {
            turn,
            utterance: format!("u{turn}"),
            intent: intent.map(IntentId),
            confidence: Some(0.9),
            action: ReplyKind::Fulfilment,
            response: "r".into(),
            feedback: fb,
        }
    }

    #[test]
    fn success_rate_equation_1() {
        let mut log = InteractionLog::new();
        for i in 0..10 {
            log.push(rec(i, Some(0), None));
        }
        log.push(rec(10, Some(0), Some(Feedback::ThumbsDown)));
        // 11 interactions, 1 negative → 10/11.
        assert!((log.success_rate().unwrap() - 10.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn thumbs_up_is_not_negative() {
        let mut log = InteractionLog::new();
        log.push(rec(0, Some(0), Some(Feedback::ThumbsUp)));
        assert_eq!(log.success_rate(), Some(1.0));
    }

    #[test]
    fn empty_log_has_no_rate() {
        assert_eq!(InteractionLog::new().success_rate(), None);
        assert_eq!(InteractionLog::new().success_rate_for(IntentId(0)), None);
    }

    #[test]
    fn per_intent_rates() {
        let mut log = InteractionLog::new();
        log.push(rec(0, Some(1), None));
        log.push(rec(1, Some(1), Some(Feedback::ThumbsDown)));
        log.push(rec(2, Some(2), None));
        assert_eq!(log.success_rate_for(IntentId(1)), Some(0.5));
        assert_eq!(log.success_rate_for(IntentId(2)), Some(1.0));
        assert_eq!(log.success_rate_for(IntentId(9)), None);
    }

    #[test]
    fn feedback_on_last_attaches() {
        let mut log = InteractionLog::new();
        log.push(rec(0, None, None));
        log.feedback_on_last(Feedback::ThumbsDown);
        assert_eq!(log.records[0].feedback, Some(Feedback::ThumbsDown));
    }

    #[test]
    fn jsonl_round_trip() {
        let mut log = InteractionLog::new();
        log.push(rec(0, Some(1), Some(Feedback::ThumbsDown)));
        log.push(rec(1, None, None));
        let text = log.to_jsonl();
        let back = InteractionLog::from_jsonl(&text).expect("parses");
        assert_eq!(back.records, log.records);
        // Blank lines tolerated; junk rejected with a line number.
        assert!(InteractionLog::from_jsonl("\n\n").unwrap().is_empty());
        let err = InteractionLog::from_jsonl("{}\nnot json").unwrap_err();
        assert_eq!(err.0, 1, "first line is already malformed: {:?}", err.1);
    }

    #[test]
    fn merge_concatenates() {
        let mut a = InteractionLog::new();
        a.push(rec(0, Some(1), None));
        let mut b = InteractionLog::new();
        b.push(rec(1, Some(2), Some(Feedback::ThumbsDown)));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.success_rate(), Some(0.5));
    }

    #[test]
    fn usage_sorted_descending() {
        let mut log = InteractionLog::new();
        for _ in 0..3 {
            log.push(rec(0, Some(5), None));
        }
        log.push(rec(0, Some(7), None));
        log.push(rec(0, None, None));
        let usage = log.usage_by_intent();
        assert_eq!(usage, vec![(IntentId(5), 3), (IntentId(7), 1)]);
    }
}

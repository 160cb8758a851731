//! Playing one scripted request on either side of the wire, judging its
//! outcome, and the correctness gate's comparison of served replies with
//! in-process ones.

use std::collections::BTreeMap;

use obcs_agent::{AgentReply, ReplyKind};
use obcs_serve::protocol::encode_line;
use obcs_serve::{kind_label, Response, TurnReply};
use obcs_sim::traffic::judge;

use crate::script::{answer, Request};

/// The two reply types a request is played against.
pub trait Reply {
    fn is_elicitation(&self) -> bool;
    fn text(&self) -> &str;
}

impl Reply for TurnReply {
    fn is_elicitation(&self) -> bool {
        self.kind == kind_label(ReplyKind::Elicitation)
    }
    fn text(&self) -> &str {
        &self.text
    }
}

impl Reply for AgentReply {
    fn is_elicitation(&self) -> bool {
        self.kind == ReplyKind::Elicitation
    }
    fn text(&self) -> &str {
        &self.text
    }
}

/// Plays `request`: its utterance, then the scripted answer to each
/// elicitation prompt, up to `MAX_FOLLOWUPS` of them. `turn` serves one
/// utterance; `None` (a failed turn) ends the request. Returns the final
/// reply.
pub fn play<R: Reply>(request: &Request, mut turn: impl FnMut(&str) -> Option<R>) -> Option<R> {
    let mut reply = turn(&request.utterance)?;
    for answers in &request.answers {
        if !reply.is_elicitation() {
            break;
        }
        let next = answer(reply.text(), answers).to_string();
        reply = turn(&next)?;
    }
    Some(reply)
}

/// The SME judgement (`obcs_sim::traffic::judge`) of a request's final
/// reply. Gibberish requests are never a success, as in the simulator.
pub fn judged(expected: Option<&str>, detected: &Option<String>, reply: &AgentReply) -> bool {
    expected.is_some_and(|e| judge(e, detected, reply))
}

/// [`judged`] for a reply read off the wire.
pub fn judged_wire(expected: Option<&str>, reply: &TurnReply) -> bool {
    let kinds = [
        ReplyKind::Management,
        ReplyKind::Elicitation,
        ReplyKind::Fulfilment,
        ReplyKind::Proposal,
        ReplyKind::Disambiguation,
        ReplyKind::Fallback,
        ReplyKind::Closing,
        ReplyKind::Degraded,
    ];
    let Some(kind) = kinds.into_iter().find(|&k| kind_label(k) == reply.kind) else {
        return false;
    };
    let agent_reply = AgentReply {
        text: reply.text.clone(),
        kind,
        intent: None,
        confidence: reply.confidence,
        found_results: reply.found_results,
    };
    judged(expected, &reply.intent, &agent_reply)
}

/// An engine reply in its wire form, as the server renders it.
pub fn wire(session: &str, reply: &AgentReply, intent: Option<String>) -> TurnReply {
    TurnReply {
        session: session.to_string(),
        text: reply.text.clone(),
        kind: kind_label(reply.kind).to_string(),
        intent,
        confidence: reply.confidence,
        found_results: reply.found_results,
        shed: false,
    }
}

/// The wire line a reply travels as.
pub fn reply_line(reply: TurnReply) -> String {
    encode_line(&Response::Reply(reply))
}

/// Reply-line digests per session, in turn order.
pub type Digests = BTreeMap<u32, Vec<u64>>;

/// FNV-1a over a reply line.
pub fn digest(line: &str) -> u64 {
    line.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The correctness gate: the served replies of every sampled session
/// must equal the in-process replay's, byte for byte.
pub fn compare(served: &Digests, replayed: &Digests) -> Result<(), String> {
    if served.keys().ne(replayed.keys()) {
        return Err(format!(
            "sampled sessions differ: served {:?}, replayed {:?}",
            served.keys().collect::<Vec<_>>(),
            replayed.keys().collect::<Vec<_>>()
        ));
    }
    for (session, lines) in served {
        let other = &replayed[session];
        if let Some(i) = (0..lines.len().max(other.len())).find(|&i| lines.get(i) != other.get(i)) {
            return Err(format!("session {session}: turn {i} differs from the in-process replay"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::{Answers, MAX_FOLLOWUPS};

    fn reply(kind: ReplyKind, text: &str) -> AgentReply {
        AgentReply {
            text: text.to_string(),
            kind,
            intent: None,
            confidence: Some(0.5),
            found_results: true,
        }
    }

    fn request() -> Request {
        Request {
            session: 0,
            index: 0,
            expected: Some("Drugs That Treat Condition"),
            utterance: "what treats fever".to_string(),
            answers: [(); MAX_FOLLOWUPS].map(|_| Answers {
                age: "pediatric".into(),
                condition: "Fever".into(),
                drug: "Aspirin".into(),
            }),
        }
    }

    #[test]
    fn play_answers_elicitations_up_to_the_limit() {
        let mut said = Vec::new();
        let last = play(&request(), |u| {
            said.push(u.to_string());
            Some(reply(ReplyKind::Elicitation, "What age group?"))
        });
        assert_eq!(said, ["what treats fever", "pediatric", "pediatric"]);
        assert!(last.is_some_and(|r| r.is_elicitation()));

        let mut turns = 0;
        let last = play(&request(), |_| {
            turns += 1;
            Some(reply(ReplyKind::Fulfilment, "Aspirin"))
        });
        assert_eq!(turns, 1);
        assert_eq!(last.map(|r| r.text), Some("Aspirin".to_string()));
    }

    #[test]
    fn wire_judgement_matches_the_engine_judgement() {
        let r = reply(ReplyKind::Fulfilment, "Aspirin treats Fever");
        let name = Some("Drugs That Treat Condition".to_string());
        let w = wire("s0", &r, name.clone());
        let expected = Some("Drugs That Treat Condition");
        assert!(judged(expected, &name, &r));
        assert!(judged_wire(expected, &w));
        assert!(!judged_wire(None, &w), "gibberish is never a success");
        assert!(!judged_wire(Some("Uses of Drug"), &w));
    }

    #[test]
    fn the_gate_rejects_an_altered_reply() {
        let r = reply(ReplyKind::Fulfilment, "Aspirin treats Fever");
        let lines: Vec<u64> =
            (0..3).map(|i| digest(&reply_line(wire(&format!("s{i}"), &r, None)))).collect();
        let served: Digests = [(4, lines.clone())].into();
        assert_eq!(compare(&served, &served.clone()), Ok(()));

        let mut altered = r.clone();
        altered.text.push('.');
        let mut tampered = lines.clone();
        tampered[1] = digest(&reply_line(wire("s1", &altered, None)));
        let err = compare(&served, &[(4, tampered)].into()).expect_err("altered text");
        assert!(err.contains("turn 1"), "{err}");

        let shorter: Digests = [(4, lines[..2].to_vec())].into();
        assert!(compare(&served, &shorter).is_err(), "a missing reply");
        assert!(compare(&served, &[(5, lines)].into()).is_err(), "another session");
    }
}

//! Integration tests spanning the whole pipeline: ontology → KB → mapping
//! → bootstrap → dialogue → agent, on the mini Figure-2 domain and on a
//! generated (ontogen) domain.

use obcs::kb::ontogen::{generate_ontology, OntogenOptions};
use obcs::kb::schema::{ColumnType, TableSchema};
use obcs::prelude::*;

#[test]
fn offline_then_online_on_fig2_domain() {
    let (onto, kb, mapping) = obcs::core::testutil::fig2_fixture();
    let space = bootstrap(&onto, &kb, &mapping, BootstrapConfig::default(), &SmeFeedback::new());

    // Every query intent has a template that prepares against the KB and
    // executes with entity values as its parameters.
    let drug = onto.concept_id("Drug").unwrap();
    let ind = onto.concept_id("Indication").unwrap();
    let values = [(drug, "Aspirin"), (ind, "Fever")];
    let mut executed = 0;
    for intent in space.intents.iter().filter(|i| i.is_query()) {
        for labeled in space.templates_for(intent.id) {
            let params: Option<Vec<Value>> = (labeled.template.required_concepts().iter())
                .map(|c| values.iter().find(|(vc, _)| vc == c).map(|(_, v)| Value::text(*v)))
                .collect();
            let Some(params) = params else {
                continue;
            };
            let sql = labeled.template.sql();
            let plan = labeled.template.prepare(&kb).unwrap_or_else(|e| panic!("{sql}: {e}"));
            kb.execute(&plan, &params).unwrap_or_else(|e| panic!("{}: {sql}: {e}", intent.name));
            executed += 1;
        }
    }
    assert!(executed >= 5, "executed {executed} templates");

    // The online loop answers a mixed conversation.
    let mut agent = ConversationAgent::new(onto, kb, mapping, space, AgentConfig::default());
    let reply = agent.respond("what drug treats Fever?");
    assert_eq!(reply.kind, ReplyKind::Fulfilment, "{reply:?}");
    assert!(reply.text.contains("Aspirin"));
    let reply = agent.respond("show me the risk for Ibuprofen");
    assert_eq!(reply.kind, ReplyKind::Fulfilment, "{reply:?}");
}

#[test]
fn conversation_space_round_trips_through_json() {
    let (onto, kb, mapping) = obcs::core::testutil::fig2_fixture();
    let space = bootstrap(&onto, &kb, &mapping, BootstrapConfig::default(), &SmeFeedback::new());
    let json = space.to_json();
    let restored = ConversationSpace::from_json(&json).expect("deserialise");
    assert_eq!(restored.inventory(), space.inventory());

    // An agent built from the restored space behaves identically.
    let mut a = ConversationAgent::new(
        onto.clone(),
        kb.clone(),
        mapping.clone(),
        space,
        AgentConfig::default(),
    );
    let mut b = ConversationAgent::new(onto, kb, mapping, restored, AgentConfig::default());
    for u in ["what drug treats Fever?", "show me the precaution for Aspirin"] {
        assert_eq!(a.respond(u).text, b.respond(u).text);
    }
}

#[test]
fn ontogen_domain_is_conversational_end_to_end() {
    // Build a KB, generate its ontology (§3 option 2), bootstrap, chat.
    let mut kb = KnowledgeBase::new();
    kb.create_table(
        TableSchema::new("machine")
            .column("machine_id", ColumnType::Int)
            .column("name", ColumnType::Text)
            .column("location", ColumnType::Text)
            .primary_key("machine_id"),
    )
    .unwrap();
    kb.create_table(
        TableSchema::new("fault")
            .column("fault_id", ColumnType::Int)
            .column("machine_id", ColumnType::Int)
            .column("description", ColumnType::Text)
            .primary_key("fault_id")
            .foreign_key("machine_id", "machine", "machine_id"),
    )
    .unwrap();
    for (i, name) in ["Press A", "Lathe B", "Mill C"].iter().enumerate() {
        kb.insert("machine", vec![Value::Int(i as i64), Value::text(*name), Value::text("hall 1")])
            .unwrap();
    }
    for i in 0..5i64 {
        kb.insert(
            "fault",
            vec![Value::Int(i), Value::Int(i % 3), Value::text(format!("fault {i}"))],
        )
        .unwrap();
    }
    let onto = generate_ontology(&kb, "factory", OntogenOptions::default()).unwrap();
    let mapping = OntologyMapping::infer(&onto, &kb);
    let space = bootstrap(&onto, &kb, &mapping, BootstrapConfig::default(), &SmeFeedback::new());
    assert!(space.intents.iter().any(|i| i.name == "Faults of Machine"));
    let mut agent = ConversationAgent::new(onto, kb, mapping, space, AgentConfig::default());
    let reply = agent.respond("show me the fault for Lathe B");
    assert_eq!(reply.kind, ReplyKind::Fulfilment, "{reply:?}");
    assert!(reply.text.contains("fault 1") || reply.text.contains("fault 4"), "{}", reply.text);
}

#[test]
fn feedback_flows_into_success_rate() {
    let (onto, kb, mapping) = obcs::core::testutil::fig2_fixture();
    let space = bootstrap(&onto, &kb, &mapping, BootstrapConfig::default(), &SmeFeedback::new());
    let mut agent = ConversationAgent::new(onto, kb, mapping, space, AgentConfig::default());
    agent.respond("what drug treats Fever?");
    agent.feedback(Feedback::ThumbsUp);
    agent.respond("apfjhd");
    agent.feedback(Feedback::ThumbsDown);
    agent.respond("show me the precaution for Aspirin");
    // Equation 1: 3 interactions, 1 negative.
    let rate = agent.log.success_rate().expect("non-empty log");
    assert!((rate - 2.0 / 3.0).abs() < 1e-12);
}

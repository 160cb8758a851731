//! NLQ benches: lexicon construction, utterance annotation, NL→SQL
//! interpretation, and template instantiation (the paper's Athena-style
//! service, §4.4).

use criterion::{criterion_group, criterion_main, Criterion};
use obcs_bench::World;
use obcs_nlq::annotate::Lexicon;
use obcs_nlq::interpret::{build_query, Filter};
use std::hint::black_box;

fn bench_nlq(c: &mut Criterion) {
    let world = World::small(7);
    let lexicon = Lexicon::build(&world.onto, &world.kb, &world.mapping);

    let mut group = c.benchmark_group("nlq");
    group.bench_function("lexicon_build", |b| {
        b.iter(|| black_box(Lexicon::build(&world.onto, &world.kb, &world.mapping)))
    });
    group.bench_function("annotate", |b| {
        b.iter(|| black_box(lexicon.annotate("show me the precautions for benztropine mesylate")))
    });
    group.bench_function("mask", |b| {
        b.iter(|| {
            black_box(lexicon.mask(
                "give me the dosage for tazarotene for psoriasis in pediatric patients",
                &world.onto,
            ))
        })
    });
    group.bench_function("partial_matches", |b| {
        b.iter(|| black_box(lexicon.partial_matches("calcium")))
    });

    // NL → SQL end to end for a lookup and an indirect pattern.
    let drug = world.onto.concept_id("Drug").expect("Drug");
    let condition = world.onto.concept_id("Condition").expect("Condition");
    let dosage = world.onto.concept_id("Dosage").expect("Dosage");
    group.bench_function("build_query_and_sql", |b| {
        b.iter(|| {
            let q = build_query(
                &world.onto,
                &world.mapping,
                dosage,
                &[
                    Filter { concept: drug, column: "name".into(), value: "Aspirin".into() },
                    Filter { concept: condition, column: "name".into(), value: "Fever".into() },
                ],
            )
            .expect("interpretable");
            black_box(q.to_sql(&world.onto, &world.kb, &world.mapping).expect("sql"))
        })
    });

    // A prepared template run with a parameter (the online hot path).
    let intent = world.space.intent_by_name("Precautions of Drug").expect("intent");
    let plan = world.space.templates_for(intent.id)[0].template.prepare(&world.kb).expect("plan");
    let params = [obcs_kb::Value::text("Aspirin")];
    group.bench_function("prepared_template_execute", |b| {
        b.iter(|| black_box(world.kb.execute(&plan, black_box(&params)).expect("rows")))
    });
    group.finish();
}

criterion_group!(benches, bench_nlq);
criterion_main!(benches);

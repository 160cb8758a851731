//! Synthetic MDX knowledge-base generation.
//!
//! The real Micromedex content is proprietary; this module generates a
//! seeded synthetic equivalent with the same *shape*: a drug reference
//! with ~150 drugs, ~48 conditions, categorical attribute vocabularies,
//! and one content set per dependent concept. Every drug, brand, and
//! condition mentioned in the paper's transcripts is included verbatim so
//! the §6.3 conversations replay against this KB.

use obcs_kb::schema::{ColumnType, TableSchema};
use obcs_kb::{KnowledgeBase, Value};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Curated drugs: `(name, brand, base_salt, class)`. Contains every drug
/// of the paper's transcripts (Tazarotene/Tazorac, Fluocinonide,
/// Benztropine Mesylate/Cogentin, Cyclopentolate/Cyclogel, …).
pub const CURATED_DRUGS: &[(&str, &str, &str, &str)] = &[
    ("Aspirin", "Bayer", "Acetylsalicylic Acid", "NSAID"),
    ("Ibuprofen", "Advil", "Ibuprofen", "NSAID"),
    ("Acetaminophen", "Tylenol", "Acetaminophen", "Analgesic"),
    ("Tazarotene", "Tazorac", "Tazarotene", "Retinoid"),
    ("Fluocinonide", "Vanos", "Fluocinonide", "Corticosteroid"),
    ("Acitretin", "Soriatane", "Acitretin", "Retinoid"),
    ("Adalimumab", "Humira", "Adalimumab", "TNF Inhibitor"),
    ("Salicylic Acid", "Compound W", "Salicylic Acid", "Keratolytic"),
    ("Benztropine Mesylate", "Cogentin", "Benztropine Mesylate", "Anticholinergic"),
    ("Cyclopentolate", "Cyclogel", "Cyclopentolate Hydrochloride", "Mydriatic"),
    ("Benazepril", "Lotensin", "Benazepril Hydrochloride", "ACE Inhibitor"),
    ("Calcium Carbonate", "Tums", "Calcium Carbonate", "Antacid"),
    ("Calcium Citrate", "Citracal", "Calcium Citrate", "Calcium Supplement"),
    ("Citicoline", "Cognizin", "Citicoline Sodium", "Nootropic"),
    ("Pancreatin", "Creon", "Pancreatin", "Digestive Enzyme"),
    ("Warfarin", "Coumadin", "Warfarin Sodium", "Anticoagulant"),
    ("Heparin", "Hep-Lock", "Heparin Sodium", "Anticoagulant"),
    ("Amoxicillin", "Amoxil", "Amoxicillin Trihydrate", "Penicillin Antibiotic"),
    ("Azithromycin", "Zithromax", "Azithromycin Dihydrate", "Macrolide Antibiotic"),
    ("Ciprofloxacin", "Cipro", "Ciprofloxacin Hydrochloride", "Fluoroquinolone"),
    ("Doxycycline", "Vibramycin", "Doxycycline Hyclate", "Tetracycline"),
    ("Metformin", "Glucophage", "Metformin Hydrochloride", "Biguanide"),
    ("Insulin Glargine", "Lantus", "Insulin Glargine", "Insulin"),
    ("Lisinopril", "Zestril", "Lisinopril", "ACE Inhibitor"),
    ("Losartan", "Cozaar", "Losartan Potassium", "ARB"),
    ("Amlodipine", "Norvasc", "Amlodipine Besylate", "Calcium Channel Blocker"),
    ("Metoprolol", "Lopressor", "Metoprolol Tartrate", "Beta Blocker"),
    ("Atenolol", "Tenormin", "Atenolol", "Beta Blocker"),
    ("Atorvastatin", "Lipitor", "Atorvastatin Calcium", "Statin"),
    ("Simvastatin", "Zocor", "Simvastatin", "Statin"),
    ("Omeprazole", "Prilosec", "Omeprazole Magnesium", "Proton Pump Inhibitor"),
    ("Pantoprazole", "Protonix", "Pantoprazole Sodium", "Proton Pump Inhibitor"),
    ("Ranitidine", "Zantac", "Ranitidine Hydrochloride", "H2 Blocker"),
    ("Ondansetron", "Zofran", "Ondansetron Hydrochloride", "Antiemetic"),
    ("Prednisone", "Deltasone", "Prednisone", "Corticosteroid"),
    ("Hydrocortisone", "Cortef", "Hydrocortisone", "Corticosteroid"),
    ("Albuterol", "Ventolin", "Albuterol Sulfate", "Beta Agonist"),
    ("Montelukast", "Singulair", "Montelukast Sodium", "Leukotriene Antagonist"),
    ("Fluticasone", "Flonase", "Fluticasone Propionate", "Corticosteroid"),
    ("Cetirizine", "Zyrtec", "Cetirizine Hydrochloride", "Antihistamine"),
    ("Loratadine", "Claritin", "Loratadine", "Antihistamine"),
    ("Diphenhydramine", "Benadryl", "Diphenhydramine Hydrochloride", "Antihistamine"),
    ("Sertraline", "Zoloft", "Sertraline Hydrochloride", "SSRI"),
    ("Fluoxetine", "Prozac", "Fluoxetine Hydrochloride", "SSRI"),
    ("Escitalopram", "Lexapro", "Escitalopram Oxalate", "SSRI"),
    ("Venlafaxine", "Effexor", "Venlafaxine Hydrochloride", "SNRI"),
    ("Gabapentin", "Neurontin", "Gabapentin", "Anticonvulsant"),
    ("Lamotrigine", "Lamictal", "Lamotrigine", "Anticonvulsant"),
    ("Levetiracetam", "Keppra", "Levetiracetam", "Anticonvulsant"),
    ("Sumatriptan", "Imitrex", "Sumatriptan Succinate", "Triptan"),
    ("Morphine", "MS Contin", "Morphine Sulfate", "Opioid"),
    ("Oxycodone", "OxyContin", "Oxycodone Hydrochloride", "Opioid"),
    ("Tramadol", "Ultram", "Tramadol Hydrochloride", "Opioid"),
    ("Naloxone", "Narcan", "Naloxone Hydrochloride", "Opioid Antagonist"),
    ("Levothyroxine", "Synthroid", "Levothyroxine Sodium", "Thyroid Hormone"),
    ("Methotrexate", "Trexall", "Methotrexate Sodium", "Antimetabolite"),
    ("Cyclosporine", "Neoral", "Cyclosporine", "Immunosuppressant"),
    ("Tacrolimus", "Prograf", "Tacrolimus", "Immunosuppressant"),
    ("Furosemide", "Lasix", "Furosemide", "Loop Diuretic"),
    ("Hydrochlorothiazide", "Microzide", "Hydrochlorothiazide", "Thiazide Diuretic"),
    ("Spironolactone", "Aldactone", "Spironolactone", "Potassium-Sparing Diuretic"),
    ("Digoxin", "Lanoxin", "Digoxin", "Cardiac Glycoside"),
    ("Amiodarone", "Pacerone", "Amiodarone Hydrochloride", "Antiarrhythmic"),
    ("Clopidogrel", "Plavix", "Clopidogrel Bisulfate", "Antiplatelet"),
];

/// Name fragments for generated (non-curated) drugs.
const DRUG_PREFIXES: &[&str] = &[
    "Cardio", "Neuro", "Gastro", "Pulmo", "Derma", "Osteo", "Hema", "Nephro", "Hepato", "Immuno",
    "Endo", "Rheuma", "Onco",
];
const DRUG_STEMS: &[&str] =
    &["vast", "pril", "sart", "olol", "zol", "micin", "cyclin", "dipine", "xaban", "tinib"];
const DRUG_SUFFIXES: &[&str] = &["in", "ol", "ide", "ate", "one", "ium"];

/// Curated conditions: `(name, icd_code, category)`.
pub const CONDITIONS: &[(&str, &str, &str)] = &[
    ("Psoriasis", "L40", "dermatologic"),
    ("Fever", "R50", "general"),
    ("Acne", "L70", "dermatologic"),
    ("Bronchitis", "J40", "respiratory"),
    ("Hypertension", "I10", "cardiovascular"),
    ("Migraine", "G43", "neurologic"),
    ("Asthma", "J45", "respiratory"),
    ("Diabetes Mellitus", "E11", "endocrine"),
    ("Hyperlipidemia", "E78", "endocrine"),
    ("Depression", "F32", "psychiatric"),
    ("Anxiety", "F41", "psychiatric"),
    ("Epilepsy", "G40", "neurologic"),
    ("Parkinsonism", "G20", "neurologic"),
    ("Atrial Fibrillation", "I48", "cardiovascular"),
    ("Heart Failure", "I50", "cardiovascular"),
    ("Pneumonia", "J18", "respiratory"),
    ("Urinary Tract Infection", "N39", "genitourinary"),
    ("Otitis Media", "H66", "infectious"),
    ("Sinusitis", "J32", "respiratory"),
    ("Pharyngitis", "J02", "respiratory"),
    ("Gastroesophageal Reflux", "K21", "gastrointestinal"),
    ("Peptic Ulcer", "K27", "gastrointestinal"),
    ("Nausea", "R11", "gastrointestinal"),
    ("Constipation", "K59", "gastrointestinal"),
    ("Diarrhea", "R19", "gastrointestinal"),
    ("Eczema", "L30", "dermatologic"),
    ("Urticaria", "L50", "dermatologic"),
    ("Allergic Rhinitis", "J30", "respiratory"),
    ("Osteoarthritis", "M19", "musculoskeletal"),
    ("Rheumatoid Arthritis", "M06", "musculoskeletal"),
    ("Gout", "M10", "musculoskeletal"),
    ("Osteoporosis", "M81", "musculoskeletal"),
    ("Hypothyroidism", "E03", "endocrine"),
    ("Hyperthyroidism", "E05", "endocrine"),
    ("Anemia", "D64", "hematologic"),
    ("Deep Vein Thrombosis", "I82", "cardiovascular"),
    ("Pulmonary Embolism", "I26", "cardiovascular"),
    ("Stroke", "I63", "neurologic"),
    ("Insomnia", "G47", "neurologic"),
    ("Glaucoma", "H40", "ophthalmic"),
    ("Conjunctivitis", "H10", "ophthalmic"),
    ("Pain", "R52", "general"),
    ("Headache", "R51", "neurologic"),
    ("Obesity", "E66", "endocrine"),
    ("Chronic Kidney Disease", "N18", "renal"),
    ("Hepatitis", "K75", "hepatic"),
    ("Tuberculosis", "A15", "infectious"),
    ("Influenza", "J11", "infectious"),
];

/// Hand-pinned treatment facts used by the paper's transcripts:
/// `(condition, drugs)`.
pub const PINNED_TREATMENTS: &[(&str, &[&str])] = &[
    ("Psoriasis", &["Acitretin", "Adalimumab", "Fluocinonide", "Salicylic Acid", "Tazarotene"]),
    ("Fever", &["Aspirin", "Ibuprofen", "Acetaminophen"]),
    ("Acne", &["Tazarotene", "Doxycycline", "Salicylic Acid"]),
    ("Parkinsonism", &["Benztropine Mesylate"]),
    ("Bronchitis", &["Amoxicillin", "Azithromycin", "Doxycycline"]),
    ("Hypertension", &["Benazepril", "Lisinopril", "Losartan", "Amlodipine", "Metoprolol"]),
];

/// Pinned dosage texts (paper §6.3 lines 13 & 15): `(drug, condition,
/// age group, description)`.
pub const PINNED_DOSAGES: &[(&str, &str, &str, &str)] = &[
    (
        "Tazarotene",
        "Psoriasis",
        "pediatric",
        "Plaque psoriasis Tazorac(R) gel (12 years and older); initial, apply 0.05% gel \
         TOPICALLY every night to affected area; may increase to 0.1% gel or cream \
         TOPICALLY every night if indicated and tolerated.",
    ),
    (
        "Fluocinonide",
        "Psoriasis",
        "pediatric",
        "Plaque psoriasis 12 years or older; TOPICAL, apply 0.1% cream once or twice \
         daily to the affected area for maximum of 2 consecutive weeks and 60 grams/week.",
    ),
];

/// Categorical vocabularies for the satellite tables:
/// `(table, extra columns (name excluded), values per row)`.
struct SatSpec {
    table: &'static str,
    extra: &'static [(&'static str, ColumnType)],
    rows: &'static [&'static [&'static str]],
}

macro_rules! sat {
    ($table:literal, [$(($col:literal, $ty:ident)),*], [$($row:expr),* $(,)?]) => {
        SatSpec {
            table: $table,
            extra: &[$(($col, ColumnType::$ty)),*],
            rows: &[$($row),*],
        }
    };
}

fn satellite_specs() -> Vec<SatSpec> {
    vec![
        sat!(
            "age_group",
            [("min_age", Int), ("max_age", Int)],
            [
                &["adult", "18", "64"],
                &["pediatric", "0", "17"],
                &["geriatric", "65", "120"],
                &["neonatal", "0", "0"],
            ]
        ),
        sat!(
            "dose_unit",
            [("system", Text), ("abbreviation", Text)],
            [
                &["milligram", "metric", "mg"],
                &["milliliter", "metric", "mL"],
                &["microgram", "metric", "mcg"],
                &["gram", "metric", "g"],
                &["unit", "iu", "U"],
            ]
        ),
        sat!(
            "frequency",
            [("per_day", Int), ("interval_hours", Int)],
            [
                &["once daily", "1", "24"],
                &["twice daily", "2", "12"],
                &["three times daily", "3", "8"],
                &["every night", "1", "24"],
                &["every 6 hours", "4", "6"],
                &["weekly", "0", "168"],
            ]
        ),
        sat!(
            "therapy_duration",
            [("days", Int), ("note_text", Text)],
            [
                &["3 days", "3", "short course"],
                &["7 days", "7", "standard course"],
                &["2 weeks", "14", "extended course"],
                &["4 weeks", "28", "long course"],
                &["chronic", "0", "ongoing therapy"],
            ]
        ),
        sat!(
            "route",
            [("site", Text), ("invasive", Text)],
            [
                &["ORAL", "mouth", "no"],
                &["TOPICAL", "skin", "no"],
                &["INTRAVENOUS", "vein", "yes"],
                &["INTRAMUSCULAR", "muscle", "yes"],
                &["SUBCUTANEOUS", "subcutis", "yes"],
                &["OPHTHALMIC", "eye", "no"],
            ]
        ),
        sat!(
            "dose_form",
            [("physical_state", Text), ("strength_note", Text)],
            [
                &["tablet", "solid", "fixed strengths"],
                &["capsule", "solid", "fixed strengths"],
                &["gel", "semisolid", "0.05% and 0.1%"],
                &["cream", "semisolid", "0.1%"],
                &["solution", "liquid", "varied"],
                &["injection", "liquid", "varied"],
            ]
        ),
        sat!(
            "severity",
            [("rank", Int), ("action_required", Text)],
            [
                &["mild", "1", "monitor"],
                &["moderate", "2", "consider alternatives"],
                &["severe", "3", "discontinue"],
            ]
        ),
        sat!(
            "incidence",
            [("rate", Text)],
            [&["common", ">10%"], &["uncommon", "1-10%"], &["rare", "<1%"],]
        ),
        sat!(
            "organ_system",
            [("body_region", Text), ("icd_chapter", Text)],
            [
                &["gastrointestinal", "abdomen", "XI"],
                &["dermatologic", "skin", "XII"],
                &["neurologic", "nervous system", "VI"],
                &["cardiovascular", "heart", "IX"],
                &["renal", "kidney", "XIV"],
                &["hepatic", "liver", "XI"],
            ]
        ),
        sat!(
            "efficacy",
            [("rank", Int), ("definition", Text)],
            [
                &["effective", "1", "evidence favors efficacy"],
                &["possibly effective", "2", "evidence is inconclusive"],
                &["ineffective", "3", "evidence is against efficacy"],
            ]
        ),
        sat!(
            "evidence_rating",
            [("description", Text)],
            [
                &["category A", "randomized controlled trials"],
                &["category B", "nonrandomized studies"],
                &["category C", "expert opinion"],
            ]
        ),
        sat!(
            "recommendation",
            [("strength", Text)],
            [&["recommended", "strong"], &["conditional", "weak"], &["not recommended", "against"],]
        ),
        sat!(
            "absorption",
            [("description", Text)],
            [
                &["rapid", "peak within 1 hour"],
                &["moderate", "peak in 1-4 hours"],
                &["slow", "peak after 4 hours"],
            ]
        ),
        sat!(
            "distribution",
            [("description", Text)],
            [
                &["wide", "crosses most membranes"],
                &["plasma-bound", "high protein binding"],
                &["limited", "low volume of distribution"],
            ]
        ),
        sat!(
            "metabolism",
            [("description", Text)],
            [
                &["hepatic CYP3A4", "major oxidative pathway"],
                &["hepatic CYP2D6", "polymorphic pathway"],
                &["renal", "excreted largely unchanged"],
                &["plasma esterases", "hydrolysis in blood"],
            ]
        ),
        sat!(
            "excretion",
            [("description", Text)],
            [&["renal", "urine"], &["biliary", "feces"], &["mixed", "urine and feces"],]
        ),
        sat!(
            "half_life",
            [("hours", Int)],
            [&["short", "2"], &["intermediate", "8"], &["long", "24"], &["very long", "72"],]
        ),
        sat!(
            "toxic_dose",
            [("threshold", Text)],
            [
                &["low threshold", ">2x therapeutic dose"],
                &["moderate threshold", ">5x therapeutic dose"],
                &["high threshold", ">10x therapeutic dose"],
            ]
        ),
        sat!(
            "clinical_effect",
            [("description", Text)],
            [
                &["CNS depression", "sedation to coma"],
                &["arrhythmia", "cardiac conduction changes"],
                &["hepatotoxicity", "transaminase elevation"],
                &["nephrotoxicity", "acute kidney injury"],
            ]
        ),
        sat!(
            "overdose_treatment",
            [("description", Text)],
            [
                &["activated charcoal", "within 1 hour of ingestion"],
                &["supportive care", "airway, breathing, circulation"],
                &["specific antidote", "per toxin"],
                &["hemodialysis", "for dialyzable agents"],
            ]
        ),
        sat!(
            "lab_test",
            [("specimen", Text), ("units", Text)],
            [
                &["INR", "blood", "ratio"],
                &["serum creatinine", "blood", "mg/dL"],
                &["liver function panel", "blood", "U/L"],
                &["complete blood count", "blood", "cells/uL"],
                &["blood glucose", "blood", "mg/dL"],
            ]
        ),
        sat!(
            "schedule",
            [("authority", Text), ("restrictions", Text)],
            [
                &["Schedule II", "DEA", "no refills"],
                &["Schedule IV", "DEA", "limited refills"],
                &["Rx only", "FDA", "prescription required"],
                &["OTC", "FDA", "none"],
            ]
        ),
        sat!(
            "approval_status",
            [("description", Text)],
            [
                &["approved", "full marketing approval"],
                &["investigational", "trials ongoing"],
                &["withdrawn", "removed from market"],
            ]
        ),
        sat!(
            "solution",
            [("tonicity", Text), ("abbreviation", Text)],
            [
                &["normal saline", "isotonic", "NS"],
                &["dextrose 5%", "isotonic", "D5W"],
                &["lactated ringers", "isotonic", "LR"],
                &["half normal saline", "hypotonic", "1/2NS"],
            ]
        ),
        sat!(
            "compatibility_result",
            [("description", Text)],
            [
                &["compatible", "no precipitation or loss"],
                &["incompatible", "precipitation or degradation"],
                &["variable", "depends on concentration"],
            ]
        ),
        sat!(
            "patient_population",
            [("criteria", Text), ("note_text", Text)],
            [
                &["pregnancy", "pregnant patients", "weigh risk and benefit"],
                &["lactation", "breastfeeding patients", "consider infant exposure"],
                &["elderly", "age 65 and older", "start low, go slow"],
                &["renal impairment", "reduced kidney function", "adjust dose"],
                &["hepatic impairment", "reduced liver function", "adjust dose"],
            ]
        ),
        sat!(
            "pregnancy_category",
            [("risk_summary", Text), ("authority", Text)],
            [
                &["category A", "no demonstrated fetal risk", "FDA"],
                &["category B", "no evidence of risk in humans", "FDA"],
                &["category C", "risk cannot be ruled out", "FDA"],
                &["category D", "positive evidence of risk", "FDA"],
                &["category X", "contraindicated in pregnancy", "FDA"],
            ]
        ),
        sat!(
            "lactation_risk",
            [("description", Text)],
            [
                &["compatible", "usual doses pose minimal risk"],
                &["caution", "monitor the infant"],
                &["avoid", "significant infant exposure"],
            ]
        ),
        sat!(
            "renal_function",
            [("crcl_range", Text), ("stage", Text)],
            [
                &["normal renal function", "CrCl > 60", "stage 1-2"],
                &["moderate impairment", "CrCl 30-60", "stage 3"],
                &["severe impairment", "CrCl < 30", "stage 4-5"],
            ]
        ),
        sat!(
            "hepatic_function",
            [("child_pugh", Text), ("stage", Text)],
            [
                &["normal hepatic function", "none", "none"],
                &["mild impairment", "Child-Pugh A", "compensated"],
                &["moderate impairment", "Child-Pugh B", "significant"],
                &["severe impairment", "Child-Pugh C", "decompensated"],
            ]
        ),
        sat!(
            "drug_class",
            [("atc_code", Text), ("description", Text)],
            [
                &["NSAID", "M01A", "nonsteroidal anti-inflammatory"],
                &["Retinoid", "D05B", "vitamin A derivative"],
                &["Corticosteroid", "D07A", "anti-inflammatory steroid"],
                &["ACE Inhibitor", "C09A", "angiotensin converting enzyme inhibitor"],
                &["Beta Blocker", "C07A", "beta adrenergic antagonist"],
                &["Statin", "C10AA", "HMG-CoA reductase inhibitor"],
                &["SSRI", "N06AB", "selective serotonin reuptake inhibitor"],
                &["Opioid", "N02A", "opioid receptor agonist"],
                &["Antibiotic", "J01", "antibacterial"],
                &["Anticoagulant", "B01A", "blood thinner"],
            ]
        ),
        sat!(
            "drug_target",
            [("target_type", Text)],
            [
                &["COX-1", "enzyme"],
                &["COX-2", "enzyme"],
                &["retinoic acid receptor", "nuclear receptor"],
                &["ACE", "enzyme"],
                &["beta-1 receptor", "GPCR"],
                &["serotonin transporter", "transporter"],
                &["mu opioid receptor", "GPCR"],
                &["HMG-CoA reductase", "enzyme"],
            ]
        ),
        sat!(
            "interaction_effect",
            [("description", Text)],
            [
                &["increased bleeding", "additive anticoagulation"],
                &["reduced efficacy", "antagonism or induction"],
                &["QT prolongation", "additive cardiac effect"],
                &["serotonin syndrome", "additive serotonergic effect"],
                &["increased levels", "metabolic inhibition"],
            ]
        ),
        sat!(
            "food",
            [("category", Text), ("note_text", Text)],
            [
                &["grapefruit juice", "fruit", "CYP3A4 inhibition"],
                &["dairy", "calcium-rich", "chelation reduces absorption"],
                &["alcohol", "beverage", "additive CNS or hepatic effects"],
                &["high-fat meal", "meal", "alters absorption"],
            ]
        ),
        sat!(
            "warning_source",
            [("region", Text)],
            [&["FDA", "United States"], &["EMA", "Europe"],]
        ),
    ]
}

/// Size knobs for the generator.
#[derive(Debug, Clone, Copy)]
pub struct MdxDataConfig {
    /// Total drugs (curated + generated).
    pub drugs: usize,
    pub seed: u64,
}

impl Default for MdxDataConfig {
    fn default() -> Self {
        MdxDataConfig { drugs: 150, seed: 20200614 }
    }
}

/// Builds the full synthetic MDX knowledge base.
pub fn build_mdx_kb(config: MdxDataConfig) -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    create_schema(&mut kb);
    populate_satellites(&mut kb);
    populate_standalone(&mut kb);
    populate_conditions(&mut kb);
    let drug_names = populate_drugs(&mut kb, &mut rng, config.drugs);
    populate_bridges(&mut kb, &mut rng, &drug_names);
    populate_dependents(&mut kb, &mut rng, &drug_names);
    // Hash indexes on every PK/FK join key (DESIGN.md §14.2), the keys
    // template SQL probes. Purely an access-path change — results are
    // byte-identical to scans (the index-oracle property).
    kb.auto_index();
    kb
}

fn create_schema(kb: &mut KnowledgeBase) {
    use ColumnType::*;
    kb.create_table(
        TableSchema::new("drug")
            .column("drug_id", Int)
            .column("name", Text)
            .column("brand", Text)
            .column("base_salt", Text)
            .column("description", Text)
            .column("drug_class_name", Text)
            .column("approval_year", Int)
            .primary_key("drug_id"),
    )
    .expect("mdx schema");
    kb.create_table(
        TableSchema::new("condition")
            .column("condition_id", Int)
            .column("name", Text)
            .column("icd_code", Text)
            .column("description", Text)
            .column("category", Text)
            .primary_key("condition_id"),
    )
    .expect("mdx schema");
    // Satellite tables.
    for spec in satellite_specs() {
        let mut s = TableSchema::new(spec.table)
            .column(format!("{}_id", spec.table), Int)
            .column("name", Text)
            .primary_key(format!("{}_id", spec.table));
        for (col, ty) in spec.extra {
            s = s.column(*col, *ty);
        }
        kb.create_table(s).expect("mdx schema");
    }
    // Bridges.
    for bridge in ["treats", "may_cause"] {
        kb.create_table(
            TableSchema::new(bridge)
                .column(format!("{bridge}_id"), Int)
                .column("drug_id", Int)
                .column("condition_id", Int)
                .primary_key(format!("{bridge}_id"))
                .foreign_key("drug_id", "drug", "drug_id")
                .foreign_key("condition_id", "condition", "condition_id"),
        )
        .expect("mdx schema");
    }
    // Dependent tables: (table, satellite fk tables, extra text columns).
    let dependents: &[(&str, &[&str], &[&str])] = &[
        (
            "administration",
            &["route", "dose_form"],
            &["description", "instructions", "timing", "note"],
        ),
        (
            "adverse_effect",
            &["severity", "incidence", "organ_system"],
            &["description", "effect", "onset", "note"],
        ),
        (
            "dose_adjustment",
            &["renal_function", "hepatic_function"],
            &["description", "adjustment", "rationale", "note"],
        ),
        ("drug_interaction", &[], &["description", "summary", "onset", "note"]),
        (
            "iv_compatibility",
            &["solution", "compatibility_result"],
            &["description", "result_note", "study_basis", "note"],
        ),
        (
            "mechanism_of_action",
            &["drug_class", "drug_target"],
            &["description", "pathway", "pharmacology", "note"],
        ),
        ("monitoring", &["lab_test"], &["description", "parameter", "target_range", "note"]),
        (
            "pharmacokinetics",
            &["absorption", "distribution", "metabolism", "excretion", "half_life"],
            &["description", "profile", "kinetics_note", "note"],
        ),
        (
            "precaution",
            &["patient_population", "pregnancy_category", "lactation_risk"],
            &["description", "detail", "applies_to", "note"],
        ),
        (
            "regulatory_status",
            &["schedule", "approval_status"],
            &["description", "status_note", "region", "note"],
        ),
        ("risk", &[], &["description", "summary", "severity_note", "note"]),
        (
            "use",
            &["efficacy", "evidence_rating", "recommendation"],
            &["description", "indication_note", "evidence_note", "note"],
        ),
    ];
    for (table, sats, cols) in dependents {
        let mut s = TableSchema::new(*table)
            .column(format!("{table}_id"), Int)
            .column("drug_id", Int)
            .primary_key(format!("{table}_id"))
            .foreign_key("drug_id", "drug", "drug_id");
        for sat in *sats {
            s = s.column(format!("{sat}_id"), Int).foreign_key(
                format!("{sat}_id"),
                *sat,
                format!("{sat}_id"),
            );
        }
        for col in *cols {
            s = s.column(*col, Text);
        }
        kb.create_table(s).expect("mdx schema");
    }
    // Dosage and toxicology additionally reference condition (Fig. 6).
    kb.create_table(
        TableSchema::new("dosage")
            .column("dosage_id", Int)
            .column("drug_id", Int)
            .column("condition_id", Int)
            .column("age_group_id", Int)
            .column("dose_unit_id", Int)
            .column("frequency_id", Int)
            .column("therapy_duration_id", Int)
            .column("description", Text)
            .column("amount", Text)
            .column("regimen", Text)
            .column("note", Text)
            .primary_key("dosage_id")
            .foreign_key("drug_id", "drug", "drug_id")
            .foreign_key("condition_id", "condition", "condition_id")
            .foreign_key("age_group_id", "age_group", "age_group_id")
            .foreign_key("dose_unit_id", "dose_unit", "dose_unit_id")
            .foreign_key("frequency_id", "frequency", "frequency_id")
            .foreign_key("therapy_duration_id", "therapy_duration", "therapy_duration_id"),
    )
    .expect("mdx schema");
    kb.create_table(
        TableSchema::new("toxicology")
            .column("toxicology_id", Int)
            .column("drug_id", Int)
            .column("condition_id", Int)
            .column("toxic_dose_id", Int)
            .column("clinical_effect_id", Int)
            .column("overdose_treatment_id", Int)
            .column("description", Text)
            .column("presentation", Text)
            .column("management", Text)
            .column("note", Text)
            .primary_key("toxicology_id")
            .foreign_key("drug_id", "drug", "drug_id")
            .foreign_key("condition_id", "condition", "condition_id")
            .foreign_key("toxic_dose_id", "toxic_dose", "toxic_dose_id")
            .foreign_key("clinical_effect_id", "clinical_effect", "clinical_effect_id")
            .foreign_key("overdose_treatment_id", "overdose_treatment", "overdose_treatment_id"),
    )
    .expect("mdx schema");
    // Hierarchy children: shared-PK specialisations.
    kb.create_table(
        TableSchema::new("contra_indication")
            .column("risk_id", Int)
            .column("description", Text)
            .column("basis", Text)
            .column("note", Text)
            .primary_key("risk_id")
            .foreign_key("risk_id", "risk", "risk_id"),
    )
    .expect("mdx schema");
    kb.create_table(
        TableSchema::new("black_box_warning")
            .column("risk_id", Int)
            .column("warning_source_id", Int)
            .column("description", Text)
            .column("boxed_text", Text)
            .column("note", Text)
            .primary_key("risk_id")
            .foreign_key("risk_id", "risk", "risk_id")
            .foreign_key("warning_source_id", "warning_source", "warning_source_id"),
    )
    .expect("mdx schema");
    kb.create_table(
        TableSchema::new("drug_drug_interaction")
            .column("drug_interaction_id", Int)
            .column("interaction_effect_id", Int)
            .column("description", Text)
            .column("management", Text)
            .column("documentation", Text)
            .primary_key("drug_interaction_id")
            .foreign_key("drug_interaction_id", "drug_interaction", "drug_interaction_id")
            .foreign_key("interaction_effect_id", "interaction_effect", "interaction_effect_id"),
    )
    .expect("mdx schema");
    kb.create_table(
        TableSchema::new("drug_food_interaction")
            .column("drug_interaction_id", Int)
            .column("food_id", Int)
            .column("mechanism", Text)
            .column("management", Text)
            .column("documentation", Text)
            .primary_key("drug_interaction_id")
            .foreign_key("drug_interaction_id", "drug_interaction", "drug_interaction_id")
            .foreign_key("food_id", "food", "food_id"),
    )
    .expect("mdx schema");
    kb.create_table(
        TableSchema::new("drug_lab_interaction")
            .column("drug_interaction_id", Int)
            .column("note_text", Text)
            .column("effect_on_test", Text)
            .column("documentation", Text)
            .primary_key("drug_interaction_id")
            .foreign_key("drug_interaction_id", "drug_interaction", "drug_interaction_id"),
    )
    .expect("mdx schema");
    // Standalone metadata.
    kb.create_table(
        TableSchema::new("citation")
            .column("citation_id", Int)
            .column("title", Text)
            .column("source", Text)
            .column("year", Int)
            .primary_key("citation_id"),
    )
    .expect("mdx schema");
    kb.create_table(
        TableSchema::new("content_version")
            .column("content_version_id", Int)
            .column("version", Text)
            .column("released", Text)
            .column("editor", Text)
            .primary_key("content_version_id"),
    )
    .expect("mdx schema");
    kb.create_table(
        TableSchema::new("disclaimer")
            .column("disclaimer_id", Int)
            .column("title", Text)
            .column("body_text", Text)
            .column("audience", Text)
            .primary_key("disclaimer_id"),
    )
    .expect("mdx schema");
}

fn populate_satellites(kb: &mut KnowledgeBase) {
    for spec in satellite_specs() {
        for (i, row) in spec.rows.iter().enumerate() {
            let mut values = vec![Value::Int(i as i64), Value::text(row[0])];
            for (k, (_, ty)) in spec.extra.iter().enumerate() {
                let raw = row[k + 1];
                values.push(match ty {
                    ColumnType::Int => Value::Int(raw.parse().expect("numeric satellite value")),
                    _ => Value::text(raw),
                });
            }
            kb.insert(spec.table, values).expect("satellite row");
        }
    }
}

fn populate_standalone(kb: &mut KnowledgeBase) {
    for (i, (title, source, year)) in [
        ("Drug Reference Compendium", "editorial board", 2018),
        ("Toxicology Sources Review", "editorial board", 2019),
        ("Interaction Evidence Survey", "editorial board", 2019),
    ]
    .iter()
    .enumerate()
    {
        kb.insert(
            "citation",
            vec![
                Value::Int(i as i64),
                Value::text(*title),
                Value::text(*source),
                Value::Int(*year),
            ],
        )
        .expect("citation row");
    }
    kb.insert(
        "content_version",
        vec![
            Value::Int(0),
            Value::text("2019.07"),
            Value::text("2019-07-01"),
            Value::text("editorial board"),
        ],
    )
    .expect("version row");
    kb.insert(
        "disclaimer",
        vec![
            Value::Int(0),
            Value::text("Clinical decision support"),
            Value::text("Content is synthetic and for reproduction research only."),
            Value::text("clinicians"),
        ],
    )
    .expect("disclaimer row");
}

fn populate_conditions(kb: &mut KnowledgeBase) {
    for (i, (name, icd, category)) in CONDITIONS.iter().enumerate() {
        kb.insert(
            "condition",
            vec![
                Value::Int(i as i64),
                Value::text(*name),
                Value::text(*icd),
                Value::text(format!("{name} ({icd})")),
                Value::text(*category),
            ],
        )
        .expect("condition row");
    }
}

fn populate_drugs(kb: &mut KnowledgeBase, rng: &mut ChaCha8Rng, total: usize) -> Vec<String> {
    let mut names = Vec::new();
    for (i, (name, brand, salt, class)) in CURATED_DRUGS.iter().enumerate() {
        kb.insert(
            "drug",
            vec![
                Value::Int(i as i64),
                Value::text(*name),
                Value::text(*brand),
                Value::text(*salt),
                Value::text(format!("{name} ({class})")),
                Value::text(*class),
                Value::Int(1960 + (i as i64 * 7) % 60),
            ],
        )
        .expect("drug row");
        names.push(name.to_string());
    }
    // Generated tail: synthetic but plausible names, deterministic. The
    // prefix×stem×suffix space holds only ~780 distinct compositions, so
    // "large world" sizes (tens of thousands of drugs) must not rely on
    // rejection sampling alone: after a few collisions the base name gets
    // a deterministic numeric disambiguator instead of spinning forever.
    let mut taken: std::collections::HashSet<String> = names.iter().cloned().collect();
    while names.len() < total {
        let id = names.len() as i64;
        let mut name = String::new();
        for attempt in 0..8 {
            let base = capitalize(&format!(
                "{}{}{}",
                DRUG_PREFIXES[rng.gen_range(0..DRUG_PREFIXES.len())].to_lowercase(),
                DRUG_STEMS[rng.gen_range(0..DRUG_STEMS.len())],
                DRUG_SUFFIXES[rng.gen_range(0..DRUG_SUFFIXES.len())]
            ));
            let candidate = if attempt < 4 { base } else { format!("{base} {id}") };
            if taken.insert(candidate.clone()) {
                name = candidate;
                break;
            }
        }
        if name.is_empty() {
            // The `{base} {id}` form is unique per id; reaching here
            // would mean the same id retried, which cannot happen.
            unreachable!("drug name generation failed to disambiguate");
        }
        let class =
            ["Antibiotic", "Statin", "Beta Blocker", "SSRI", "NSAID"][rng.gen_range(0..5usize)];
        kb.insert(
            "drug",
            vec![
                Value::Int(id),
                Value::text(&name),
                Value::text(format!("{name}-XR")),
                Value::text(format!("{name} Hydrochloride")),
                Value::text(format!("{name} ({class})")),
                Value::text(class),
                Value::Int(1980 + (id * 3) % 40),
            ],
        )
        .expect("drug row");
        names.push(name);
    }
    names
}

fn condition_id(name: &str) -> i64 {
    CONDITIONS.iter().position(|(n, _, _)| *n == name).expect("pinned condition exists") as i64
}

fn drug_id(names: &[String], name: &str) -> i64 {
    names.iter().position(|n| n == name).expect("pinned drug exists") as i64
}

fn populate_bridges(kb: &mut KnowledgeBase, rng: &mut ChaCha8Rng, drugs: &[String]) {
    let mut treats_id = 0i64;
    let mut seen: std::collections::HashSet<(i64, i64)> = std::collections::HashSet::new();
    for (condition, pinned_drugs) in PINNED_TREATMENTS {
        let cid = condition_id(condition);
        for d in *pinned_drugs {
            let did = drug_id(drugs, d);
            if seen.insert((did, cid)) {
                kb.insert("treats", vec![Value::Int(treats_id), Value::Int(did), Value::Int(cid)])
                    .expect("treats row");
                treats_id += 1;
            }
        }
    }
    // Random coverage for the remaining drugs.
    let mut may_cause_id = 0i64;
    for (did, _) in drugs.iter().enumerate() {
        let did = did as i64;
        for _ in 0..rng.gen_range(1..=3) {
            let cid = rng.gen_range(0..CONDITIONS.len()) as i64;
            if seen.insert((did, cid)) {
                kb.insert("treats", vec![Value::Int(treats_id), Value::Int(did), Value::Int(cid)])
                    .expect("treats row");
                treats_id += 1;
            }
        }
        if rng.gen_bool(0.4) {
            let cid = rng.gen_range(0..CONDITIONS.len()) as i64;
            kb.insert(
                "may_cause",
                vec![Value::Int(may_cause_id), Value::Int(did), Value::Int(cid)],
            )
            .expect("may_cause row");
            may_cause_id += 1;
        }
    }
}

fn populate_dependents(kb: &mut KnowledgeBase, rng: &mut ChaCha8Rng, drugs: &[String]) {
    let sat_len = |table: &str| kb.table(table).expect("satellite table").len() as i64;
    let n = |rng: &mut ChaCha8Rng, table: &str, kb: &KnowledgeBase| {
        Value::Int(rng.gen_range(0..kb.table(table).expect("satellite").len() as i64))
    };
    let _ = sat_len;

    // --- Dosage (keyed off the treats bridge so dosage rows are for
    // conditions the drug actually treats). Pinned texts first.
    let treats_rows: Vec<(i64, i64)> = kb
        .table("treats")
        .expect("treats")
        .rows
        .iter()
        .map(|r| (r[1].as_int().expect("drug id"), r[2].as_int().expect("condition id")))
        .collect();
    let age_groups = kb.table("age_group").expect("age_group").len() as i64;
    let mut dosage_id = 0i64;
    let mut pinned_pairs: Vec<(i64, i64, i64)> = Vec::new();
    for (drug, condition, age, text) in PINNED_DOSAGES {
        let did = drug_id(drugs, drug);
        let cid = condition_id(condition);
        let aid = match *age {
            "adult" => 0,
            "pediatric" => 1,
            other => panic!("unknown pinned age group {other}"),
        };
        pinned_pairs.push((did, cid, aid));
        kb.insert(
            "dosage",
            vec![
                Value::Int(dosage_id),
                Value::Int(did),
                Value::Int(cid),
                Value::Int(aid),
                Value::Int(0),
                Value::Int(3), // every night
                Value::Int(2), // 2 weeks
                Value::text(*text),
                Value::text("0.05% gel"),
                Value::text("apply nightly"),
                Value::text("titrate as tolerated"),
            ],
        )
        .expect("dosage row");
        dosage_id += 1;
    }
    for &(did, cid) in &treats_rows {
        for aid in 0..2i64 {
            if pinned_pairs.contains(&(did, cid, aid)) {
                continue;
            }
            if rng.gen_bool(0.85) {
                let amount =
                    format!("{} mg", [5, 10, 20, 25, 50, 100, 250, 500][rng.gen_range(0..8usize)]);
                let freq = rng.gen_range(0..6i64);
                kb.insert(
                    "dosage",
                    vec![
                        Value::Int(dosage_id),
                        Value::Int(did),
                        Value::Int(cid),
                        Value::Int(aid % age_groups),
                        Value::Int(rng.gen_range(0..5)),
                        Value::Int(freq),
                        Value::Int(rng.gen_range(0..5)),
                        Value::text(format!(
                            "{} {amount} for {}, {} age group",
                            drugs[did as usize],
                            CONDITIONS[cid as usize].0,
                            if aid == 0 { "adult" } else { "pediatric" }
                        )),
                        Value::text(amount),
                        Value::text("per protocol"),
                        Value::text("see full monograph"),
                    ],
                )
                .expect("dosage row");
                dosage_id += 1;
            }
        }
    }

    // --- Risk with union partition.
    let mut risk_id = 0i64;
    for (did, name) in drugs.iter().enumerate() {
        for _ in 0..rng.gen_range(1..=2) {
            let is_ci = rng.gen_bool(0.6);
            kb.insert(
                "risk",
                vec![
                    Value::Int(risk_id),
                    Value::Int(did as i64),
                    Value::text(format!(
                        "{} risk: {}",
                        if is_ci { "contraindication" } else { "black box" },
                        name
                    )),
                    Value::text(format!("{name} risk summary {risk_id}")),
                    Value::text(["low", "medium", "high"][rng.gen_range(0..3usize)]),
                    Value::text("see monograph"),
                ],
            )
            .expect("risk row");
            if is_ci {
                kb.insert(
                    "contra_indication",
                    vec![
                        Value::Int(risk_id),
                        Value::text(format!("{name} is contraindicated in hypersensitivity")),
                        Value::text("hypersensitivity"),
                        Value::text("absolute"),
                    ],
                )
                .expect("ci row");
            } else {
                kb.insert(
                    "black_box_warning",
                    vec![
                        Value::Int(risk_id),
                        Value::Int(rng.gen_range(0..2)),
                        Value::text(format!("{name} carries a boxed warning")),
                        Value::text(format!("Serious risk associated with {name}.")),
                        Value::text("boxed"),
                    ],
                )
                .expect("bbw row");
            }
            risk_id += 1;
        }
    }

    // --- DrugInteraction with isA children.
    let mut ia_id = 0i64;
    for (did, name) in drugs.iter().enumerate() {
        for _ in 0..rng.gen_range(1..=3) {
            let kind = rng.gen_range(0..3);
            let partner = &drugs[rng.gen_range(0..drugs.len())];
            kb.insert(
                "drug_interaction",
                vec![
                    Value::Int(ia_id),
                    Value::Int(did as i64),
                    Value::text(match kind {
                        0 => format!("{name} interacts with {partner}"),
                        1 => format!("{name} interacts with food"),
                        _ => format!("{name} affects laboratory tests"),
                    }),
                    Value::text(format!("interaction summary {ia_id}")),
                    Value::text(["rapid", "delayed"][rng.gen_range(0..2usize)]),
                    Value::text("monitor closely"),
                ],
            )
            .expect("interaction row");
            match kind {
                0 => kb
                    .insert(
                        "drug_drug_interaction",
                        vec![
                            Value::Int(ia_id),
                            n(rng, "interaction_effect", kb),
                            Value::text(format!("{name} is contraindicated with {partner}")),
                            Value::text("avoid combination"),
                            Value::text("established"),
                        ],
                    )
                    .expect("ddi row"),
                1 => kb
                    .insert(
                        "drug_food_interaction",
                        vec![
                            Value::Int(ia_id),
                            n(rng, "food", kb),
                            Value::text("altered absorption"),
                            Value::text("separate administration"),
                            Value::text("probable"),
                        ],
                    )
                    .expect("dfi row"),
                _ => kb
                    .insert(
                        "drug_lab_interaction",
                        vec![
                            Value::Int(ia_id),
                            Value::text(format!("{name} may alter test results")),
                            Value::text("false elevation"),
                            Value::text("theoretical"),
                        ],
                    )
                    .expect("dli row"),
            }
            ia_id += 1;
        }
    }

    // --- Toxicology (links to Condition per Fig. 6): one record per drug.
    for (tox_id, (did, name)) in drugs.iter().enumerate().enumerate() {
        {
            let tox_id = tox_id as i64;
            kb.insert(
                "toxicology",
                vec![
                    Value::Int(tox_id),
                    Value::Int(did as i64),
                    Value::Int(rng.gen_range(0..CONDITIONS.len() as i64)),
                    n(rng, "toxic_dose", kb),
                    n(rng, "clinical_effect", kb),
                    n(rng, "overdose_treatment", kb),
                    Value::text(format!("{name} overdose profile")),
                    Value::text("nausea, vomiting, lethargy"),
                    Value::text("supportive care"),
                    Value::text("contact poison control"),
                ],
            )
            .expect("toxicology row");
        }
    }

    // --- Remaining per-drug content sets.
    struct Gen<'a> {
        table: &'a str,
        sats: &'a [&'a str],
        min: usize,
        max: usize,
        text: fn(&str, i64) -> [String; 4],
    }
    let generators: &[Gen] = &[
        Gen {
            table: "administration",
            sats: &["route", "dose_form"],
            min: 1,
            max: 2,
            text: |name, i| {
                [
                    format!("Administer {name} as directed"),
                    format!("take {name} with a full glass of water"),
                    "morning".to_string(),
                    format!("administration note {i}"),
                ]
            },
        },
        Gen {
            table: "adverse_effect",
            sats: &["severity", "incidence", "organ_system"],
            min: 2,
            max: 5,
            text: |name, i| {
                [
                    format!("{name} adverse effect {i}"),
                    ["nausea", "rash", "dizziness", "headache", "fatigue", "insomnia"]
                        [(i % 6) as usize]
                        .to_string(),
                    "within days".to_string(),
                    "usually transient".to_string(),
                ]
            },
        },
        Gen {
            table: "dose_adjustment",
            sats: &["renal_function", "hepatic_function"],
            min: 1,
            max: 2,
            text: |name, i| {
                [
                    format!("Reduce {name} dose in organ impairment"),
                    format!("reduce by {}%", 25 + (i % 3) * 25),
                    "reduced clearance".to_string(),
                    "re-evaluate weekly".to_string(),
                ]
            },
        },
        Gen {
            table: "iv_compatibility",
            sats: &["solution", "compatibility_result"],
            min: 1,
            max: 2,
            text: |name, i| {
                [
                    format!("{name} IV compatibility record {i}"),
                    "visual and chemical stability assessed".to_string(),
                    "physical compatibility study".to_string(),
                    "4 hour observation".to_string(),
                ]
            },
        },
        Gen {
            table: "mechanism_of_action",
            sats: &["drug_class", "drug_target"],
            min: 1,
            max: 1,
            text: |name, _| {
                [
                    format!("{name} mechanism of action"),
                    "receptor-level modulation".to_string(),
                    "dose-dependent effect".to_string(),
                    "see pharmacology section".to_string(),
                ]
            },
        },
        Gen {
            table: "monitoring",
            sats: &["lab_test"],
            min: 1,
            max: 2,
            text: |name, i| {
                [
                    format!("Monitor therapy with {name}"),
                    "laboratory parameter".to_string(),
                    "within reference range".to_string(),
                    format!("monitoring note {i}"),
                ]
            },
        },
        Gen {
            table: "pharmacokinetics",
            sats: &["absorption", "distribution", "metabolism", "excretion", "half_life"],
            min: 1,
            max: 1,
            text: |name, _| {
                [
                    format!("{name} pharmacokinetic profile"),
                    "single and multiple dose".to_string(),
                    "linear kinetics".to_string(),
                    "healthy volunteers".to_string(),
                ]
            },
        },
        Gen {
            table: "precaution",
            sats: &["patient_population", "pregnancy_category", "lactation_risk"],
            min: 1,
            max: 3,
            text: |name, i| {
                [
                    format!("Use {name} with caution in special populations"),
                    format!("precaution detail {i}"),
                    "special population".to_string(),
                    "weigh risks and benefits".to_string(),
                ]
            },
        },
        Gen {
            table: "regulatory_status",
            sats: &["schedule", "approval_status"],
            min: 1,
            max: 1,
            text: |name, _| {
                [
                    format!("{name} regulatory standing"),
                    "current marketing status".to_string(),
                    "United States".to_string(),
                    "subject to change".to_string(),
                ]
            },
        },
        Gen {
            table: "use",
            sats: &["efficacy", "evidence_rating", "recommendation"],
            min: 1,
            max: 3,
            text: |name, i| {
                [
                    format!("{name} labeled use {i}"),
                    "indicated per label".to_string(),
                    "supported by trials".to_string(),
                    "adult and pediatric where noted".to_string(),
                ]
            },
        },
    ];
    for g in generators {
        let mut row_id = 0i64;
        for (did, name) in drugs.iter().enumerate() {
            let count = if g.min == g.max { g.min } else { rng.gen_range(g.min..=g.max) };
            for _ in 0..count {
                let texts = (g.text)(name, row_id);
                let mut row = vec![Value::Int(row_id), Value::Int(did as i64)];
                for sat in g.sats {
                    row.push(n(rng, sat, kb));
                }
                row.extend(texts.into_iter().map(Value::Text));
                kb.insert(g.table, row).expect("dependent row");
                row_id += 1;
            }
        }
    }
}

fn capitalize(s: &str) -> String {
    let mut c = s.chars();
    match c.next() {
        Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kb_builds_with_default_config() {
        let kb = build_mdx_kb(MdxDataConfig::default());
        assert_eq!(kb.table("drug").unwrap().len(), 150);
        assert_eq!(kb.table("condition").unwrap().len(), 48);
        assert!(kb.table("dosage").unwrap().len() > 200);
        assert!(kb.table("treats").unwrap().len() >= 150);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = build_mdx_kb(MdxDataConfig::default());
        let b = build_mdx_kb(MdxDataConfig::default());
        assert_eq!(a.table("drug").unwrap().rows, b.table("drug").unwrap().rows);
        assert_eq!(a.table("dosage").unwrap().rows, b.table("dosage").unwrap().rows);
    }

    #[test]
    fn pinned_transcript_facts_present() {
        let kb = build_mdx_kb(MdxDataConfig::default());
        // Tazarotene pediatric psoriasis dosage text (§6.3 line 13).
        let rs = kb
            .query(
                "SELECT d.description FROM dosage d \
                 INNER JOIN drug g ON d.drug_id = g.drug_id \
                 INNER JOIN condition c ON d.condition_id = c.condition_id \
                 INNER JOIN age_group a ON d.age_group_id = a.age_group_id \
                 WHERE g.name = 'Tazarotene' AND c.name = 'Psoriasis' AND a.name = 'pediatric'",
            )
            .unwrap();
        assert!(rs.rows.iter().any(|r| r[0].to_string().contains("Tazorac")));
        // Cogentin exists as a brand.
        let rs = kb.query("SELECT name FROM drug WHERE brand = 'Cogentin'").unwrap();
        assert_eq!(rs.rows[0][0], Value::text("Benztropine Mesylate"));
    }

    #[test]
    fn psoriasis_treatments_include_transcript_drugs() {
        let kb = build_mdx_kb(MdxDataConfig::default());
        let rs = kb
            .query(
                "SELECT DISTINCT g.name FROM drug g \
                 INNER JOIN treats t ON g.drug_id = t.drug_id \
                 INNER JOIN condition c ON t.condition_id = c.condition_id \
                 WHERE c.name = 'Psoriasis'",
            )
            .unwrap();
        let names: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
        for expected in ["Acitretin", "Adalimumab", "Fluocinonide", "Salicylic Acid", "Tazarotene"]
        {
            assert!(names.contains(&expected.to_string()), "missing {expected}");
        }
    }

    #[test]
    fn risk_children_partition_risk() {
        let kb = build_mdx_kb(MdxDataConfig::default());
        let risks = kb.table("risk").unwrap().len();
        let ci = kb.table("contra_indication").unwrap().len();
        let bbw = kb.table("black_box_warning").unwrap().len();
        assert_eq!(risks, ci + bbw, "union children partition the parent");
        assert!(risks > 50);
    }

    #[test]
    fn interaction_children_partition_parent() {
        let kb = build_mdx_kb(MdxDataConfig::default());
        let parent = kb.table("drug_interaction").unwrap().len();
        let sum = kb.table("drug_drug_interaction").unwrap().len()
            + kb.table("drug_food_interaction").unwrap().len()
            + kb.table("drug_lab_interaction").unwrap().len();
        assert_eq!(parent, sum);
    }

    #[test]
    fn partial_name_bases_exist() {
        let kb = build_mdx_kb(MdxDataConfig::default());
        let rs = kb.query("SELECT name FROM drug WHERE name LIKE 'Calcium%'").unwrap();
        assert_eq!(rs.rows.len(), 2, "Calcium Carbonate and Calcium Citrate");
    }

    #[test]
    fn default_world_indexes_exactly_its_join_keys() {
        let kb = build_mdx_kb(MdxDataConfig::default());
        for name in kb.table_names() {
            let t = kb.table(name).unwrap();
            let fks = t.schema.foreign_keys.iter().map(|fk| &fk.column);
            let mut keys: Vec<usize> = t
                .schema
                .primary_key
                .iter()
                .chain(fks)
                .map(|c| t.schema.column_index(c).unwrap())
                .collect();
            keys.sort_unstable();
            keys.dedup();
            let mut indexed: Vec<usize> = t
                .secondary_indexes()
                .iter()
                .map(|i| {
                    assert_eq!(i.kind(), obcs_kb::IndexKind::Hash, "{name}: ordered index");
                    i.column_pos()
                })
                .collect();
            indexed.sort_unstable();
            assert_eq!(indexed, keys, "{name}: one hash index per PK or FK column");
        }
        assert_eq!(kb.index_count(), 116);
    }

    #[test]
    fn smaller_config_for_fast_tests() {
        let kb = build_mdx_kb(MdxDataConfig { drugs: 80, seed: 1 });
        assert_eq!(kb.table("drug").unwrap().len(), 80);
    }

    #[test]
    fn large_world_scales_past_the_compositional_namespace() {
        // The prefix×stem×suffix space holds ~780 names; a "large world"
        // must sail past it with unique, deterministic names (the old
        // rejection-sampling loop spun forever here).
        let kb = build_mdx_kb(MdxDataConfig { drugs: 2000, seed: 9 });
        assert_eq!(kb.table("drug").unwrap().len(), 2000);
        assert_eq!(kb.distinct_values("drug", "name").unwrap().len(), 2000, "names stay unique");
        let again = build_mdx_kb(MdxDataConfig { drugs: 2000, seed: 9 });
        assert_eq!(kb.table("drug").unwrap().rows, again.table("drug").unwrap().rows);
        assert!(kb.index_count() > 0, "the world is auto-indexed");
        assert_eq!(
            kb.prepare("SELECT name FROM drug WHERE drug_id = 1423").unwrap().access_label(),
            "index_eq"
        );
    }
}

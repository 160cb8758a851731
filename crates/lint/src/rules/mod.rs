//! The rule set, grouped by the artifact each rule primarily inspects
//! (`OBCS0xx`) or the whole-space property it proves (`OBCS1xx`).
//!
//! Code ranges:
//!
//! | range      | artifact or property                          |
//! |------------|-----------------------------------------------|
//! | OBCS001–00x | ontology structure                           |
//! | OBCS01x    | training examples and patterns                |
//! | OBCS015–01x | entities, response templates                 |
//! | OBCS02x    | dialogue logic table                          |
//! | OBCS03x    | dialogue tree                                 |
//! | OBCS04x    | NLQ mapping                                   |
//! | OBCS05x    | KB schema and data                            |
//! | OBCS10x    | dialogue flow, model-checked ([`flow`])       |
//! | OBCS11x    | query templates, bind-checked ([`bindcheck`]) |
//! | OBCS12x    | cross-artifact consistency ([`consistency`])  |

pub mod bindcheck;
pub mod consistency;
pub mod dialogue;
pub mod entities;
pub mod flow;
pub mod kbcheck;
pub mod mapping;
pub mod ontology;
pub mod patterns;
pub mod templates;
pub mod training;
pub mod tree;

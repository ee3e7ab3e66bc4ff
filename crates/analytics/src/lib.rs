//! Bioinformatics analytics: the paper's §V applications, from scratch.
//!
//! * [`matrix`] — dense matrix kernels (matmul, transpose, linear solve)
//!   with no external linear-algebra dependency.
//! * [`eval`] — AUC-ROC, AUPR, precision@k.
//! * [`mf`] — weighted matrix factorization, the single-source baseline
//!   ("We have used collaborative filtering techniques such as matrix
//!   factorization for inferring drug and disease similarities").
//! * [`jmf`] — **Joint Matrix Factorization** (Zhang, Wang & Hu, Fig. 9):
//!   integrates multiple drug-similarity and disease-similarity sources
//!   with the drug–disease association matrix, learns interpretable
//!   per-source weights, and discovers drug/disease groups as a
//!   by-product.
//! * [`delt`] — **Drug Effects on Laboratory Tests** (Figs. 10–11): the
//!   SCCS-style model `y_ij = α_i + γ_i·t_ij + Σ_d β_d·x_ijd + ε` with
//!   per-patient baselines and time confounders, fit by alternating
//!   least squares; plus the marginal-correlation baseline it beats.
//! * [`ddi`] — Tiresias-style drug–drug interaction link prediction from
//!   pairwise similarity features via logistic regression.
//! * [`kmeans`] — k-means, used for JMF group discovery.
//! * [`lifecycle`] — the analytics platform's model lifecycle manager
//!   (§III-A: data cleaning → generation → testing → deployment →
//!   update), with approval gating and signed artifacts.

#![forbid(unsafe_code)]

pub mod ddi;
pub mod delt;
pub mod eval;
pub mod jmf;
pub mod kmeans;
pub mod lifecycle;
pub mod matrix;
pub mod mf;

//! RMPI model configuration.

/// How the enclosing and disclosing representations are fused for scoring.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fusion {
    /// Eq. 15: `score = W (h_rt^K + h_d)`.
    Sum,
    /// Eq. 16: `score = W (W3 [h_rt^K ⊕ h_d])`.
    Concat,
    /// Extension (paper §VI future work: "more robust fusion functions"):
    /// a learned elementwise gate, `score = W (g ⊙ h_rt^K + (1−g) ⊙ h_d)`
    /// with `g = σ(W_g [h_rt^K ⊕ h_d])`.
    Gated,
}

/// How relation-node initial features are obtained.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RelationInit {
    /// A learnable embedding table, randomly initialised — unseen relations
    /// keep their untrained rows (the paper's *Random Initialized* setting).
    Random,
    /// Projection of schema-graph TransE vectors through two linear layers
    /// (Eq. 10) — the *Schema Enhanced* setting.
    Schema,
}

/// Hyper-parameters of the RMPI family. The defaults are the paper's stated
/// best configuration (§IV-B).
#[derive(Clone, Copy, Debug)]
pub struct RmpiConfig {
    /// Relation embedding dimension (paper: 32).
    pub dim: usize,
    /// Message passing layers K (paper: 2).
    pub num_layers: usize,
    /// Subgraph extraction hop K (paper: 2).
    pub hop: usize,
    /// Enable the disclosing-subgraph NE module.
    pub ne: bool,
    /// Enable target-aware neighbourhood attention (TA).
    pub ta: bool,
    /// Fusion function used when `ne` is on.
    pub fusion: Fusion,
    /// Negative slope of LeakyReLU in attention (paper: 0.2).
    pub leaky_slope: f32,
    /// Edge dropout rate applied to subgraph edges during training
    /// (paper: 0.5).
    pub edge_dropout: f64,
    /// Initialisation mode for relation features.
    pub init: RelationInit,
    /// Hidden width of the schema projection (Eq. 10); `dim` if 0.
    pub schema_hidden: usize,
    /// Safety cap on enclosing-subgraph edges (uniform downsampling beyond).
    pub max_subgraph_edges: usize,
    /// Extension (paper §VI future work: "assembling nonnegligible reasoning
    /// clues from entities"): fold a histogram of the subgraph entities'
    /// double-radius labels into the scoring input.
    pub entity_clues: bool,
}

impl Default for RmpiConfig {
    fn default() -> Self {
        RmpiConfig {
            dim: 32,
            num_layers: 2,
            hop: 2,
            ne: false,
            ta: false,
            fusion: Fusion::Sum,
            leaky_slope: 0.2,
            edge_dropout: 0.5,
            init: RelationInit::Random,
            schema_hidden: 0,
            max_subgraph_edges: 300,
            entity_clues: false,
        }
    }
}

impl RmpiConfig {
    /// RMPI-base: no NE, no TA.
    pub fn base() -> Self {
        Self::default()
    }

    /// RMPI-NE: disclosing aggregation on.
    pub fn ne() -> Self {
        RmpiConfig { ne: true, ..Self::default() }
    }

    /// RMPI-TA: target-aware attention on.
    pub fn ta() -> Self {
        RmpiConfig { ta: true, ..Self::default() }
    }

    /// RMPI-NE-TA: both techniques on.
    pub fn ne_ta() -> Self {
        RmpiConfig { ne: true, ta: true, ..Self::default() }
    }

    /// The same configuration with schema-enhanced initialisation.
    pub fn with_schema(self) -> Self {
        RmpiConfig { init: RelationInit::Schema, ..self }
    }

    /// Effective hidden width of the schema projection.
    pub(crate) fn schema_hidden_dim(&self) -> usize {
        if self.schema_hidden == 0 {
            self.dim
        } else {
            self.schema_hidden
        }
    }

    /// Human-readable variant name, matching the paper's tables.
    pub fn variant_name(&self) -> String {
        let mut s = String::from("RMPI");
        match (self.ne, self.ta) {
            (false, false) => s.push_str("-base"),
            (true, false) => s.push_str("-NE"),
            (false, true) => s.push_str("-TA"),
            (true, true) => s.push_str("-NE-TA"),
        }
        if self.ne {
            s.push_str(match self.fusion {
                Fusion::Sum => "(S)",
                Fusion::Concat => "(C)",
                Fusion::Gated => "(G)",
            });
        }
        if self.entity_clues {
            s.push_str("+EC");
        }
        if self.init == RelationInit::Schema {
            s.push_str("+schema");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_names() {
        assert_eq!(RmpiConfig::base().variant_name(), "RMPI-base");
        assert_eq!(RmpiConfig::ne().variant_name(), "RMPI-NE(S)");
        assert_eq!(
            RmpiConfig { fusion: Fusion::Concat, ..RmpiConfig::ne_ta() }.variant_name(),
            "RMPI-NE-TA(C)"
        );
        assert_eq!(RmpiConfig::base().with_schema().variant_name(), "RMPI-base+schema");
        assert_eq!(RmpiConfig::ta().variant_name(), "RMPI-TA");
        assert_eq!(
            RmpiConfig { fusion: Fusion::Gated, entity_clues: true, ..RmpiConfig::ne() }
                .variant_name(),
            "RMPI-NE(G)+EC"
        );
    }

    #[test]
    fn defaults_match_paper() {
        let c = RmpiConfig::default();
        assert_eq!(c.dim, 32);
        assert_eq!(c.num_layers, 2);
        assert_eq!(c.hop, 2);
        assert_eq!(c.leaky_slope, 0.2);
        assert_eq!(c.edge_dropout, 0.5);
    }

    #[test]
    fn schema_hidden_defaults_to_dim() {
        assert_eq!(RmpiConfig::default().schema_hidden_dim(), 32);
        assert_eq!(RmpiConfig { schema_hidden: 64, ..Default::default() }.schema_hidden_dim(), 64);
    }
}

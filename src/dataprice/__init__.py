"""Price-modeling toolkit for data-product listings.

Pipeline: load listings, annotate missing fields, build text
representations (bag-of-words, TF-IDF, skip-gram embeddings, topic
mixtures, cluster topics), select features by mutual information, train
regressors/classifiers for price and price tier, evaluate with k-fold
cross-validation, and explain predictions with Shapley attributions.

The package's public names resolve on first use (PEP 562), so importing
one module, such as dataprice.corpus, loads only it and what it imports.
"""

import importlib

__version__ = "1.0.0"

# each public name, by the module that defines it
_EXPORTS = {
    "corpus": ("CorpusError", "DataProduct", "DescriptiveStats", "TargetSpec",
               "INDUSTRIES", "REFERENCE_TIER_CUTPOINTS", "compose_text",
               "describe", "encode_structured", "load_products",
               "make_targets", "quantile_cutpoints", "save_products",
               "structured_matrix"),
    "matrix": ("FeatureMatrix",),
    "featsel": ("SelectionTrace", "discretize", "mrmr_select",
                "mutual_information"),
    "evaluate": ("ExperimentReport", "FeatureCurve", "classification_metrics",
                 "feature_curve", "fit_family", "fit_representation",
                 "kfold_split", "regression_metrics", "run_grid"),
    "explain": ("embedding_keywords", "global_importance", "kernel_shap",
                "shap_values", "tree_expected", "tree_shap"),
    "annotate": ("AnnotationError", "AnnotationRequest", "annotate",
                 "build_prompt", "call_llm", "fallback_annotate",
                 "parse_industry", "parse_refund"),
    "synth": ("generate_products",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))

"""Price-modeling toolkit for data-product listings.

Pipeline: load listings, annotate missing fields, build text
representations (bag-of-words, TF-IDF, skip-gram embeddings, topic
mixtures, cluster topics), select features by mutual information, train
regressors/classifiers for price and price tier, evaluate with k-fold
cross-validation, and explain predictions with Shapley attributions.
"""

__version__ = "1.0.0"

from .corpus import (CorpusError, DataProduct, DescriptiveStats, TargetSpec,
                     INDUSTRIES, REFERENCE_TIER_CUTPOINTS, compose_text,
                     describe, encode_structured, load_products, make_targets,
                     quantile_cutpoints, save_products, structured_matrix)
from .matrix import FeatureMatrix
from .featsel import SelectionTrace, discretize, mrmr_select, mutual_information
from .evaluate import (ExperimentReport, FeatureCurve, classification_metrics,
                       feature_curve, fit_family, fit_representation,
                       kfold_split, regression_metrics, run_grid)
from .explain import (embedding_keywords, global_importance, kernel_shap,
                      shap_values, tree_expected, tree_shap)
from .annotate import (AnnotationError, AnnotationRequest, annotate,
                       build_prompt, call_llm, fallback_annotate,
                       parse_industry, parse_refund)
from .synth import generate_products

from .tokenizer import tokenize, STOPWORDS, STOPWORDS_VERSION
from .vocab import Vocabulary, build_vocabulary, bow, tfidf, idf_vector
from .word2vec import (EmbeddingTable, train_skipgram, doc_embedding,
                       embedding_features, sgns_loss_and_grad)
from .lda import TopicModel, train_lda, topic_features
from .clustering import ctfidf, kmeans, PCAReducer, membership_probabilities

__all__ = [
    "tokenize", "STOPWORDS", "STOPWORDS_VERSION",
    "Vocabulary", "build_vocabulary", "bow", "tfidf", "idf_vector",
    "EmbeddingTable", "train_skipgram", "doc_embedding", "embedding_features",
    "sgns_loss_and_grad",
    "TopicModel", "train_lda", "topic_features",
    "ctfidf", "kmeans", "PCAReducer", "membership_probabilities",
]

"""Audit toolkit for dot-product graph embeddings and triangle structure.

The central statistic is the triangle-foundation curve: for each degree
threshold c, the number of triangles whose endpoints all have degree at
most c, divided by the total vertex count.  The package computes this curve
exactly for graphs, builds spectral embeddings, maps pair scores to edge
probabilities under four model variants, samples graphs from those models
reproducibly, and ships numeric verifiers for the rank lower-bound toolbox
that explains why low-rank dot-product models cannot keep low-degree
triangle density.
"""

__version__ = "0.1.0"

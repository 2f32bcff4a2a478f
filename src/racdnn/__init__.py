"""Saliency detection engine: an encoder-decoder baseline network plus a
recurrent attentional refinement stage, on a self-contained numpy
autodiff tape.

Submodules are imported explicitly: ``racdnn.tensor`` (the tape),
``racdnn.nn`` (layers and the loss), ``racdnn.attention`` (spatial
transformer windows) and ``racdnn.networks`` (the two networks and their
presets).
"""

__version__ = "0.1.0"

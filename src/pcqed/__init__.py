"""Photonic-crystal membrane cavities, Purcell physics and TCSPC analysis.

Layered toolkit: `geometry` describes the triangular-lattice crystal and slab,
`bands` solves TE band structures and H1 defect modes by plane-wave expansion,
`cavity` provides the closed-form cavity-QED quantities, `tcspc` synthesizes
photon-counting decay histograms, `fitting` recovers lifetimes and enhancement
factors by reconvolution and spectral fits, and `cli` ties everything into a
config-driven pipeline. Import names from these submodules, e.g.
`from pcqed.bands import compute_bands`.
"""

__version__ = "0.1.0"

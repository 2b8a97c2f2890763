"""Material identification in hyperspectral pixels by Bayesian model averaging.

Workflow: read a labeled spectral library and an image cube, detect target
candidates with the adaptive cosine estimator, optionally remove fitted
background contributions, search subset regression models of the pixel on
library spectra, and aggregate the model posterior into per-spectrum
inclusion probabilities and a hierarchical class-probability tree. A generic
tabular mode applies the same averaging to any numeric CSV.
"""

__version__ = "0.1.0"

from .aggregate import (IdentificationTree, InclusionReport, ModelPosterior,
                        TreeNode, UnknownRegressorWarning, averaged_coefficients,
                        build_tree, class_probability, group_probability,
                        inclusion_probability, normalize)
from .core import (BandGrid, ClassHierarchy, ImageCube, Spectrum, SpectralLibrary,
                   average_pixels, extract_pixel, mix, resample, resample_library)
from .detection import (BackgroundRemoval, BackgroundStats, DetectionMap,
                        RegionOfInterest, annulus_coordinates,
                        background_removal, background_stats, detect)
from .errors import (AlignmentError, BoundsError, InputError, NumericalError,
                     ParseError, SearchError, SpecidError)
from .io_formats import (EnviHeader, parse_envi_header, read_envi, read_library,
                         read_spectrum_csv, read_table, render_tree_dot,
                         results_payload, write_inclusion_csv, write_results_json,
                         write_rois_json, write_scores, write_tree_dot)
from .regression import ModelPrior, RegressionModel, Workspace, fit
from .search import (ModelSet, SearchConfig, exhaustive_search, mc3_search,
                     occam_search, run_search)

__all__ = [name for name in dir() if not name.startswith("_")]

"""evtraj: dense continuous-time motion estimation from event-camera
streams by direct contrast maximization over parametric trajectory fields.

The package is organized around the estimation pipeline:

``events``     event containers, EVT1 I/O
``trajectory`` polynomial/Bezier trajectory bases on an anchor grid
``assoc``      per-bin KNN association, the displacement volume, each event's entry of it, and their pullbacks
``objective``  per-site event warping, the (2, H, W) polarity-stacked IWE, and the loss terms with their derivatives (contrast G, regularizer R)
``optimize``   the loss and its gradient composed from those terms, Adam descent
``synth``      synthetic scenes with exact ground truth
``metrics``    EPE / AE / %Out / TEPE / TAE, and FWL with its flow-map table
``flowio``     FLO1 flow-map files
``binfile``    the container of EVT1, TRJ1 and FLO1: magic, header, a body of
               exact length, and the byte offset in every fault
``cli``        synth / estimate / eval / render commands

Import from the modules, as in ``from evtraj.synth import SceneSpec``.
"""

__version__ = "0.1.0"

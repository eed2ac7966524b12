"""Smoking-gesture recognition from wrist accelerometer data.

Pipeline: resample 50 Hz 3-axis gestures to a fixed 200-point series, feed
one channel mode (X, Y, Z, XYZ or AVG) to a small tanh/logistic network
trained with Levenberg-Marquardt, then detect gestures in continuous
sessions with a rolling window. A parametric synthetic generator supplies
gesture corpora and sessions for desk-scale experiments.
"""

__version__ = "0.1.0"
